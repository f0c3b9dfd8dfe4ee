package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setReqs reports the median latency of a workload's requests (ms) as an
// end-to-end metric, with the mean, p99 and sample count in the human
// report. Only the median is gated: the tail of one run rests on a
// handful of slow requests, so on a small shared host it spreads between
// runs by more than any bound could tolerate.
func setReqs(e *env, ms []float64, what string) {
	mean := 0.0
	if len(ms) > 0 {
		mean = sum(ms) / float64(len(ms))
	}
	e.setE2E("req_p50_ms", "ms", quantile(ms, 0.5))
	e.note("requests: %d %s; p50 %.4g ms, mean %.4g ms, p99 %.4g ms", len(ms), what, quantile(ms, 0.5), mean, quantile(ms, 0.99))
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// yardstick is a fixed amount of host work, timed before and after a
// workload so a run made on a slower or busier host can be recognized.
// It is reported beside the metrics and never folded into them.
type yardstick struct {
	cpuMs, memMs float64
}

const (
	yardReps     = 5
	yardCPUIters = 20_000_000
	yardMemBytes = 16 << 20
	yardMemPass  = 4
)

// yardSink keeps the yardstick loops from being optimized away.
var yardSink uint64

func measureYardstick() yardstick {
	var cpu, mem []float64
	buf := make([]byte, yardMemBytes)
	for r := 0; r < yardReps; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < yardCPUIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		yardSink += x
		cpu = append(cpu, float64(time.Since(t0))/1e6)

		t0 = time.Now()
		for p := 0; p < yardMemPass; p++ {
			for i := 0; i < len(buf); i += 64 {
				buf[i] += byte(p)
			}
		}
		yardSink += uint64(buf[len(buf)/2])
		mem = append(mem, float64(time.Since(t0))/1e6)
	}
	return yardstick{cpuMs: median(cpu), memMs: median(mem)}
}
