package vm

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

func heteroMgr() *Manager {
	return New(Config{
		PageBytes:     4096,
		GPUFaultToCPU: true,
		CPUFaultServ:  2 * sim.Microsecond,
	}, nil)
}

func TestMappedPagesAreFree(t *testing.T) {
	m := heteroMgr()
	m.MapRange(0, 8192)
	if got := m.Translate(100, 4100, true); got != 100 {
		t.Fatalf("mapped page cost %d", got-100)
	}
	if !m.Mapped(0) || !m.Mapped(4096) || m.Mapped(8192) {
		t.Fatal("MapRange extent wrong")
	}
}

func TestCPUFaultIsImmediate(t *testing.T) {
	m := heteroMgr()
	if got := m.Translate(50, 0, false); got != 50 {
		t.Fatalf("CPU minor fault cost %d", got-50)
	}
	if m.Counters().Get("vm.cpu_minor_faults") != 1 {
		t.Fatal("fault not counted")
	}
	// Page is now mapped for everyone.
	if got := m.Translate(60, 128, true); got != 60 {
		t.Fatal("page should be mapped after CPU touch")
	}
}

func TestGPUFaultsSerializeOnCPUHandler(t *testing.T) {
	m := heteroMgr()
	var handled []sim.Tick
	m.OnCPUHandled = func(start, end sim.Tick, page memory.Addr) {
		handled = append(handled, start)
	}
	// Three concurrent GPU faults to distinct pages at t=0.
	t1 := m.Translate(0, 0, true)
	t2 := m.Translate(0, 4096, true)
	t3 := m.Translate(0, 8192, true)
	serv := 2 * sim.Microsecond
	if t1 != serv || t2 != 2*serv || t3 != 3*serv {
		t.Fatalf("faults not serialized: %d %d %d", t1, t2, t3)
	}
	if len(handled) != 3 || handled[1] != serv {
		t.Fatalf("handler intervals wrong: %v", handled)
	}
	if m.HandlerBusyTime() != 3*serv {
		t.Fatalf("handler busy = %d", m.HandlerBusyTime())
	}
}

func TestDiscreteGPUFaultIsLocalAndParallel(t *testing.T) {
	m := New(Config{PageBytes: 4096, GPUFaultToCPU: false, GPUFaultServ: 200 * sim.Nanosecond}, nil)
	t1 := m.Translate(0, 0, true)
	t2 := m.Translate(0, 4096, true)
	if t1 != 200*sim.Nanosecond || t2 != 200*sim.Nanosecond {
		t.Fatalf("local faults should be parallel: %d %d", t1, t2)
	}
	if m.Counters().Get("vm.gpu_local_faults") != 2 {
		t.Fatal("local faults not counted")
	}
}

func TestFaultOnlyOnFirstTouch(t *testing.T) {
	m := heteroMgr()
	m.Translate(0, 0, true)
	if got := m.Translate(0, 64, true); got != 0 {
		t.Fatal("second touch of the page must not fault")
	}
	if m.Counters().Get("vm.gpu_faults_to_cpu") != 1 {
		t.Fatal("fault count wrong")
	}
}

// TestTranslateZeroAlloc: residency is a bit in a dense page table, so
// translating an address whose page-table leaf exists allocates nothing —
// neither on a hit nor on the first-touch fault that sets the bit.
func TestTranslateZeroAlloc(t *testing.T) {
	m := New(Config{PageBytes: 4096, GPUFaultServ: 200 * sim.Nanosecond}, nil)
	m.MapRange(4<<30, 4096) // allocate the leaf covering 4 GiB onwards
	var i memory.Addr
	if a := testing.AllocsPerRun(1000, func() {
		i++
		m.Translate(sim.Tick(i), 4<<30+i*1000, true)
	}); a != 0 {
		t.Fatalf("Translate allocates %.1f/op, want 0", a)
	}
}

// TestMappedAcrossAddressSpaces pins page residency at the edges of both
// discrete-system address spaces and across the 4 GiB boundary between
// them.
func TestMappedAcrossAddressSpaces(t *testing.T) {
	m := New(Config{PageBytes: 4096}, nil)
	m.MapRange(4<<30-4096, 8192) // last CPU page, first GPU page
	m.Translate(0, 8<<30-1, false)
	for _, c := range []struct {
		addr memory.Addr
		want bool
	}{
		{0, false},
		{4<<30 - 4097, false},
		{4<<30 - 4096, true},
		{4<<30 + 4095, true},
		{4<<30 + 4096, false},
		{8<<30 - 4097, false},
		{8<<30 - 4096, true},
	} {
		if got := m.Mapped(c.addr); got != c.want {
			t.Errorf("Mapped(%#x) = %v, want %v", uint64(c.addr), got, c.want)
		}
	}
}
