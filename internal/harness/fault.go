package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/config"
)

// FaultPlan describes the degraded-hardware faults to inject into a run:
// a throttled PCIe link, a slow page-fault handler, and/or one DRAM
// channel stalled for a sim-time window. It is the parsed form of the
// -inject CLI flag and maps onto config.FaultConfig knobs.
type FaultPlan struct {
	// PCIeBWFrac in (0,1) cuts the copy-engine link to that fraction of
	// peak bandwidth; 0 leaves it nominal.
	PCIeBWFrac float64
	// FaultLatMult > 1 multiplies page-fault service latency; 0 or 1
	// leaves it nominal.
	FaultLatMult float64
	// DRAM channel stall window (simulated microseconds); active when
	// DRAMStallEndUs > DRAMStallStartUs.
	DRAMStallChannel int
	DRAMStallStartUs float64
	DRAMStallEndUs   float64
}

// Active reports whether the plan injects anything.
func (p *FaultPlan) Active() bool {
	return p != nil && (p.PCIeBWFrac > 0 && p.PCIeBWFrac < 1 ||
		p.FaultLatMult > 1 || p.DRAMStallEndUs > p.DRAMStallStartUs)
}

// Apply writes the plan into a system configuration's fault knobs.
func (p *FaultPlan) Apply(cfg *config.System) {
	if p == nil {
		return
	}
	cfg.Faults = config.FaultConfig{
		PCIeBWFrac:       p.PCIeBWFrac,
		FaultLatMult:     p.FaultLatMult,
		DRAMStallChannel: p.DRAMStallChannel,
		DRAMStallStartUs: p.DRAMStallStartUs,
		DRAMStallEndUs:   p.DRAMStallEndUs,
	}
}

// String renders the plan in the -inject flag syntax.
func (p *FaultPlan) String() string {
	if !p.Active() {
		return "none"
	}
	var parts []string
	if p.PCIeBWFrac > 0 && p.PCIeBWFrac < 1 {
		parts = append(parts, fmt.Sprintf("pcie=%g", p.PCIeBWFrac))
	}
	if p.FaultLatMult > 1 {
		parts = append(parts, fmt.Sprintf("fault=%g", p.FaultLatMult))
	}
	if p.DRAMStallEndUs > p.DRAMStallStartUs {
		parts = append(parts, fmt.Sprintf("dram=%d:%g:%g",
			p.DRAMStallChannel, p.DRAMStallStartUs, p.DRAMStallEndUs))
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the -inject flag syntax: comma-separated terms
//
//	pcie=FRAC        throttle the PCIe/copy link to FRAC of peak, 0<FRAC<1
//	fault=MULT       multiply page-fault service latency by MULT >= 1
//	dram=CH:FROM:TO  stall DRAM channel CH for [FROM,TO) simulated µs
//
// e.g. "pcie=0.25,fault=8,dram=0:100:600". An empty string or "none"
// returns a nil plan. A plan that parses but degrades either simulated
// machine into one config.Validate rejects (a NaN multiplier, a DRAM
// channel the machine lacks) is an error too, so callers reject it up
// front instead of failing every run with it.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	p := &FaultPlan{}
	for _, term := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return nil, fmt.Errorf("fault term %q: want key=value", term)
		}
		switch key {
		case "pcie":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f >= 1 {
				return nil, fmt.Errorf("fault term %q: want a bandwidth fraction in (0,1)", term)
			}
			p.PCIeBWFrac = f
		case "fault":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 1 {
				return nil, fmt.Errorf("fault term %q: want a latency multiplier >= 1", term)
			}
			p.FaultLatMult = f
		case "dram":
			fields := strings.Split(val, ":")
			if len(fields) != 3 {
				return nil, fmt.Errorf("fault term %q: want dram=CH:FROM_US:TO_US", term)
			}
			ch, err := strconv.Atoi(fields[0])
			if err != nil || ch < 0 {
				return nil, fmt.Errorf("fault term %q: bad channel %q", term, fields[0])
			}
			from, err1 := strconv.ParseFloat(fields[1], 64)
			to, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || from < 0 || to <= from {
				return nil, fmt.Errorf("fault term %q: want 0 <= FROM_US < TO_US", term)
			}
			p.DRAMStallChannel, p.DRAMStallStartUs, p.DRAMStallEndUs = ch, from, to
		default:
			return nil, fmt.Errorf("fault term %q: unknown key (want pcie, fault, or dram)", term)
		}
	}
	for _, sys := range []config.System{config.DiscreteGPU(), config.HeteroProcessor()} {
		p.Apply(&sys)
		if err := sys.Validate(); err != nil {
			return nil, fmt.Errorf("fault plan %q yields an invalid %s system: %v", s, sys.Kind, err)
		}
	}
	return p, nil
}
