// Package wgen synthesizes benchmark workloads for the simulator. A Genome
// is a small vector of knobs — window geometry, parallel fraction, working-
// set size, pointer-chase depth, stride/indirection mix, branch entropy,
// store ratio — plus a seed for a deterministic xorshift64 stream. Each
// genome deterministically expands into a textual assembly program (the
// same .sta dialect asm.Parse accepts) built from composable kernel
// fragments: pointer chase, streaming, hash probe, reduction, and branchy
// scan. Generated programs obey the workload discipline documented in
// internal/workload (BEGIN masks carry every live register, cross-iteration
// stores go through TSA/TST, per-iteration arrays carry wrong-thread
// slack), so every generated program must produce interpreter-identical
// architectural results on any machine configuration — which is what lets
// the differential soak, the chaos harness, and the coverage-guided search
// all feed from the same generator.
//
// The package deliberately depends only on the functional layers (asm, isa,
// stats, attrib): running programs on the cycle simulator is injected
// through a callback (see Search.Run), so the sta package's own tests can
// import wgen without an import cycle.
package wgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"

	"repro/internal/xorshift"
)

// Slack mirrors workload.Slack: every per-iteration array is allocated with
// this many extra entries so wrong-thread overrun (at most one speculative
// thread per TU, machine maximum 63) stays inside mapped, private memory.
const Slack = 80

// IdxEntries sizes the indirection table. It is a power of two of at least
// MaxWindows*MaxWindow+Slack entries so overrunning threads index it with a
// mask instead of a bound check.
const IdxEntries = 256

// Knob ranges. Normalization folds arbitrary values into these bounds, so
// every byte string and every mutation yields a valid genome.
const (
	minWindows, maxWindows = 1, 6  // outer sequential windows
	minWindow, maxWindow   = 2, 16 // iterations per parallel region
	minWSLog, maxWSLog     = 9, 15 // log2 bytes per data table (512B..32KB)
	maxChase               = 24    // pointer-chase hops per iteration
	maxStreams             = 12    // streaming accesses per iteration
	maxProbes              = 8     // hash-probe accesses per iteration
	maxReduce              = 12    // reduction ops per iteration
	maxScans               = 8     // branchy-scan steps per iteration
	maxPct                 = 100   // percentage knobs
)

// Genome is one point in the workload design space. All knobs are small
// integers so genomes hash, mutate, and round-trip through bytes exactly.
type Genome struct {
	// Seed drives every random draw of the expansion: data initialization,
	// fragment interleaving, and operand selection.
	Seed uint64

	Windows   uint8 // outer windows (sequential phase + parallel region each)
	Window    uint8 // iterations per parallel region (window geometry)
	ParPct    uint8 // parallel fraction: 100 minimizes the sequential phase
	WSLog     uint8 // log2 working-set bytes per table (ring and values)
	Chase     uint8 // pointer-chase depth per iteration
	Streams   uint8 // streaming accesses per iteration
	StridePct uint8 // % of stream accesses that are sequential-stride
	IndirPct  uint8 // % of non-stride stream accesses through the index table
	Probes    uint8 // hash-probe accesses per iteration
	Reduce    uint8 // dependent reduction ops per iteration
	Scans     uint8 // branchy-scan steps per iteration
	BranchPct uint8 // branch entropy: % of scan-data below the taken threshold
	StorePct  uint8 // store ratio: % chance a fragment also stores privately
	FP        uint8 // 1 = include the floating-point reduction fragment
	Chain     uint8 // 1 = cross-iteration dependence through TSA/TST
}

// clampRange folds v into [lo, hi]. In-range values pass through unchanged,
// which makes normalize idempotent — required for Canonical/ParseGenome and
// Bytes/FromBytes to round-trip exactly.
func clampRange(v uint8, lo, hi int) uint8 {
	if int(v) >= lo && int(v) <= hi {
		return v
	}
	span := hi - lo + 1
	return uint8(lo + int(v)%span)
}

// normalize folds every knob into its valid range; the zero genome
// normalizes to the smallest valid workload.
func (g Genome) normalize() Genome {
	g.Windows = clampRange(g.Windows, minWindows, maxWindows)
	g.Window = clampRange(g.Window, minWindow, maxWindow)
	g.ParPct = clampRange(g.ParPct, 0, maxPct)
	g.WSLog = clampRange(g.WSLog, minWSLog, maxWSLog)
	g.Chase = clampRange(g.Chase, 0, maxChase)
	g.Streams = clampRange(g.Streams, 0, maxStreams)
	g.StridePct = clampRange(g.StridePct, 0, maxPct)
	g.IndirPct = clampRange(g.IndirPct, 0, maxPct)
	g.Probes = clampRange(g.Probes, 0, maxProbes)
	g.Reduce = clampRange(g.Reduce, 0, maxReduce)
	g.Scans = clampRange(g.Scans, 0, maxScans)
	g.BranchPct = clampRange(g.BranchPct, 0, maxPct)
	g.StorePct = clampRange(g.StorePct, 0, maxPct)
	g.FP = g.FP & 1
	g.Chain = g.Chain & 1
	// An iteration body must touch memory somewhere, or the workload
	// degenerates below what the discipline tests assume.
	if g.Chase == 0 && g.Streams == 0 && g.Probes == 0 && g.Scans == 0 {
		g.Streams = 2
	}
	return g
}

// Random draws a genome uniformly over the knob space from one seed.
func Random(seed uint64) Genome {
	r := xorshift.New(seed)
	g := Genome{
		Seed:      r.Uint64(),
		Windows:   uint8(r.Intn(256)),
		Window:    uint8(r.Intn(256)),
		ParPct:    uint8(r.Intn(256)),
		WSLog:     uint8(r.Intn(256)),
		Chase:     uint8(r.Intn(256)),
		Streams:   uint8(r.Intn(256)),
		StridePct: uint8(r.Intn(256)),
		IndirPct:  uint8(r.Intn(256)),
		Probes:    uint8(r.Intn(256)),
		Reduce:    uint8(r.Intn(256)),
		Scans:     uint8(r.Intn(256)),
		BranchPct: uint8(r.Intn(256)),
		StorePct:  uint8(r.Intn(256)),
		FP:        uint8(r.Intn(256)),
		Chain:     uint8(r.Intn(256)),
	}
	return g.normalize()
}

// GenomeBytes is the length of the byte form: the seed plus one byte per
// knob, in declaration order.
const GenomeBytes = 8 + 15

// FromBytes decodes arbitrary bytes into a valid genome (shorter inputs
// leave trailing knobs at their zero value; longer inputs are truncated).
// This is the fuzzing entry point: any byte string is a generatable
// workload.
func FromBytes(data []byte) Genome {
	var raw [GenomeBytes]byte
	copy(raw[:], data)
	g := Genome{
		Seed:      binary.LittleEndian.Uint64(raw[0:8]),
		Windows:   raw[8],
		Window:    raw[9],
		ParPct:    raw[10],
		WSLog:     raw[11],
		Chase:     raw[12],
		Streams:   raw[13],
		StridePct: raw[14],
		IndirPct:  raw[15],
		Probes:    raw[16],
		Reduce:    raw[17],
		Scans:     raw[18],
		BranchPct: raw[19],
		StorePct:  raw[20],
		FP:        raw[21],
		Chain:     raw[22],
	}
	return g.normalize()
}

// Bytes renders the genome so that FromBytes(g.Bytes()) == g: knobs are
// stored as their normalized values, which idempotent normalization passes
// through unchanged.
func (g Genome) Bytes() []byte {
	g = g.normalize()
	raw := make([]byte, GenomeBytes)
	binary.LittleEndian.PutUint64(raw[0:8], g.Seed)
	raw[8] = g.Windows
	raw[9] = g.Window
	raw[10] = g.ParPct
	raw[11] = g.WSLog
	raw[12] = g.Chase
	raw[13] = g.Streams
	raw[14] = g.StridePct
	raw[15] = g.IndirPct
	raw[16] = g.Probes
	raw[17] = g.Reduce
	raw[18] = g.Scans
	raw[19] = g.BranchPct
	raw[20] = g.StorePct
	raw[21] = g.FP
	raw[22] = g.Chain
	return raw
}

// Canonical renders the genome as one line of text. It is the identity the
// FNV hash is computed over, the format ParseGenome reads back, and the
// form corpus seed files are archived in.
func (g Genome) Canonical() string {
	g = g.normalize()
	return fmt.Sprintf(
		"wgen1 seed=%#016x win=%dx%d par=%d ws=%d chase=%d stream=%d/%d/%d probe=%d reduce=%d scan=%d br=%d store=%d fp=%d chain=%d",
		g.Seed, g.Windows, g.Window, g.ParPct, g.WSLog, g.Chase,
		g.Streams, g.StridePct, g.IndirPct, g.Probes, g.Reduce, g.Scans,
		g.BranchPct, g.StorePct, g.FP, g.Chain)
}

// Hash content-addresses the genome: "g" plus the 16-hex-digit FNV-64a of
// the canonical rendering — the same hash family and width the runstore
// uses for configuration addresses, so generated-cell identities follow the
// repository's memo-key convention.
func (g Genome) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(g.Canonical()))
	return fmt.Sprintf("g%016x", h.Sum64())
}

// BenchName names the generated workload for the harness, the ledger, and
// the run archive: the genome hash is embedded, so every ledger entry and
// archived manifest of a generated cell carries it.
func (g Genome) BenchName() string { return "wgen-" + g.Hash() }

// ParseGenome reads a canonical genome line back (leading/trailing space
// and a trailing newline are tolerated).
func ParseGenome(s string) (Genome, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) == 0 || fields[0] != "wgen1" {
		return Genome{}, fmt.Errorf("wgen: not a genome line (want leading %q)", "wgen1")
	}
	var g Genome
	seen := make(map[string]bool)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Genome{}, fmt.Errorf("wgen: bad field %q", f)
		}
		if seen[k] {
			return Genome{}, fmt.Errorf("wgen: duplicate field %q", k)
		}
		seen[k] = true
		switch k {
		case "seed":
			u, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Genome{}, fmt.Errorf("wgen: bad seed %q", v)
			}
			g.Seed = u
		case "win":
			a, b, ok := strings.Cut(v, "x")
			if !ok {
				return Genome{}, fmt.Errorf("wgen: bad win %q (want WxN)", v)
			}
			w, err1 := parseKnob(a)
			n, err2 := parseKnob(b)
			if err1 != nil || err2 != nil {
				return Genome{}, fmt.Errorf("wgen: bad win %q", v)
			}
			g.Windows, g.Window = w, n
		case "stream":
			parts := strings.Split(v, "/")
			if len(parts) != 3 {
				return Genome{}, fmt.Errorf("wgen: bad stream %q (want n/stride%%/indir%%)", v)
			}
			n, err1 := parseKnob(parts[0])
			sp, err2 := parseKnob(parts[1])
			ip, err3 := parseKnob(parts[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return Genome{}, fmt.Errorf("wgen: bad stream %q", v)
			}
			g.Streams, g.StridePct, g.IndirPct = n, sp, ip
		default:
			u, err := parseKnob(v)
			if err != nil {
				return Genome{}, fmt.Errorf("wgen: bad value %q for %q", v, k)
			}
			switch k {
			case "par":
				g.ParPct = u
			case "ws":
				g.WSLog = u
			case "chase":
				g.Chase = u
			case "probe":
				g.Probes = u
			case "reduce":
				g.Reduce = u
			case "scan":
				g.Scans = u
			case "br":
				g.BranchPct = u
			case "store":
				g.StorePct = u
			case "fp":
				g.FP = u
			case "chain":
				g.Chain = u
			default:
				return Genome{}, fmt.Errorf("wgen: unknown field %q", k)
			}
		}
	}
	if !seen["seed"] {
		return Genome{}, fmt.Errorf("wgen: genome line missing seed")
	}
	return g.normalize(), nil
}

// Load resolves a genome from a flag value: a literal canonical line
// ("wgen1 ..."), or the path of a file whose first line is one.
func Load(v string) (Genome, error) {
	if strings.HasPrefix(strings.TrimSpace(v), "wgen1") {
		return ParseGenome(v)
	}
	raw, err := os.ReadFile(v)
	if err != nil {
		return Genome{}, fmt.Errorf("wgen: %q is neither a genome line nor a readable file: %w", v, err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return ParseGenome(line)
}

func parseKnob(s string) (uint8, error) {
	u, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, err
	}
	return uint8(u), nil
}

// Iterations returns the total parallel iteration count windows*window.
func (g Genome) Iterations() int {
	g = g.normalize()
	return int(g.Windows) * int(g.Window)
}
