// Wrongpath: demonstrates wrong-path load continuation (paper §3.1.1,
// Figure 3) on a single thread unit. An alternating branch defeats the
// 2-bit predictor and resolves within a couple of cycles, so the loads
// fetched down the wrong side of the hammock are address-ready but not yet
// issued when the misprediction is discovered. With wp execution those
// loads continue to memory after the recovery; with the WEC their fills are
// isolated from the L1 and picked up by the next iterations of the other
// direction — which reference the very same blocks.
//
// Run with: go run ./examples/wrongpath
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sta"
	"repro/internal/stats"
	"repro/internal/xorshift"
)

// build returns a single-threaded loop whose hammock direction is decided
// by a data-dependent control bit (unpredictable, like a search compare).
// Both sides index their table by block (i>>3), so the wrong side's loads
// prefetch exactly the block the other direction needs a few iterations
// later. The block addresses are computed up front, so by the time the
// loaded control bit resolves the branch, the wrong side's loads are
// address-ready (Figure 3's loads C and D).
func build() *asm.Builder {
	const n = 4096
	b := asm.New()
	ta := b.Alloc("ta", 64*(n/16+1), 0)
	tb := b.Alloc("tb", 64*(n/16+1), 0)
	ctl := b.Alloc("ctl", 8*n, 0)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := 0; i <= n/16; i++ {
		b.InitWord(ta+uint64(64*i), int64(3*i))
		b.InitWord(ta+uint64(64*i)+8, int64(3*i+1))
		b.InitWord(tb+uint64(64*i), int64(5*i))
		b.InitWord(tb+uint64(64*i)+8, int64(5*i+1))
	}
	for i := 0; i < n; i++ {
		seed = xorshift.Next(seed)
		b.InitWord(ctl+uint64(8*i), int64(seed&1))
	}
	b.Li(1, 0) // i
	b.Li(2, n)
	b.Li(4, int64(ta))
	b.Li(5, int64(tb))
	b.Li(7, int64(ctl))
	b.Li(6, 0) // acc
	// Warm both tables into the shared L2 (they fit), so wrong-path fills
	// complete quickly enough to be consumed from the WEC.
	b.Li(10, int64(ta))
	b.Li(11, int64(ta)+64*(n/16+1))
	b.Label("warma")
	b.Ld(12, 0, 10)
	b.OpI(isa.ADDI, 10, 10, 64)
	b.Br(isa.BLT, 10, 11, "warma")
	b.Li(10, int64(tb))
	b.Li(11, int64(tb)+64*(n/16+1))
	b.Label("warmb")
	b.Ld(12, 0, 10)
	b.OpI(isa.ADDI, 10, 10, 64)
	b.Br(isa.BLT, 10, 11, "warmb")
	b.Label("loop")
	b.OpI(isa.SRAI, 12, 1, 4)  // block index i>>4
	b.OpI(isa.SLLI, 12, 12, 6) // *64 bytes
	b.Op3(isa.ADD, 13, 12, 4)  // table A block address
	b.Op3(isa.ADD, 17, 12, 5)  // table B block address
	b.OpI(isa.SLLI, 11, 1, 3)
	b.Op3(isa.ADD, 11, 11, 7)
	b.Ld(11, 0, 11) // random control bit: ~50% mispredicted
	b.Br(isa.BNE, 11, 0, "odd")
	b.Ld(14, 0, 13)
	b.Op3(isa.ADD, 6, 6, 14)
	b.Jmp("next")
	b.Label("odd")
	b.Ld(14, 0, 17)
	b.Op3(isa.SUB, 6, 6, 14)
	b.Label("next")
	b.OpI(isa.ADDI, 1, 1, 1)
	b.Br(isa.BLT, 1, 2, "loop")
	b.Halt()
	return b
}

func run(wp bool) *sta.Result {
	prog, err := build().Build()
	if err != nil {
		log.Fatal(err)
	}
	cfg := sta.DefaultConfig()
	cfg.NumTUs = 1
	// A narrow memory pipe (one L1 port, two MSHRs) keeps ready loads
	// queued at branch-resolution time — the situation of Figure 3, where
	// loads C and D are still "waiting for a free port".
	cfg.Mem.L1DPorts = 1
	cfg.Mem.L1DMSHRs = 2
	cfg.Core.WrongPathExec = wp
	if wp {
		cfg.Mem.Side = mem.SideWEC
	}
	m, err := sta.New(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	fmt.Println("wrong-path load continuation on a single thread unit")
	orig := run(false)
	wp := run(true)
	if orig.MemCheck != wp.MemCheck {
		log.Fatal("architectural mismatch — wrong-path execution altered results")
	}
	fmt.Printf("%-22s %12s %12s\n", "", "orig", "wp+wec")
	fmt.Printf("%-22s %12d %12d\n", "cycles", orig.Stats.Cycles, wp.Stats.Cycles)
	fmt.Printf("%-22s %12d %12d\n", "mispredicts", orig.Stats.Mispredicts, wp.Stats.Mispredicts)
	fmt.Printf("%-22s %12d %12d\n", "wrong-path loads", orig.Stats.WrongPathLoads, wp.Stats.WrongPathLoads)
	fmt.Printf("%-22s %12d %12d\n", "L1D misses", orig.Stats.L1DMisses, wp.Stats.L1DMisses)
	fmt.Printf("%-22s %12d %12d\n", "WEC inserts", orig.Stats.WECInserts, wp.Stats.WECInserts)
	fmt.Printf("%-22s %12d %12d\n", "WEC hits", orig.Stats.WECHits, wp.Stats.WECHits)
	fmt.Printf("%-22s %12d %12d\n", "  ...on wrong-fetched", orig.Stats.WrongUseful, wp.Stats.WrongUseful)
	fmt.Printf("\nspeedup: %s\n", stats.Pct(stats.RelativeSpeedupPct(orig.Stats.Cycles, wp.Stats.Cycles)))
}
