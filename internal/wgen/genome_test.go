package wgen

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/xorshift"
)

func TestNormalizeIdempotent(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		r := xorshift.New(seed*0x9E3779B97F4A7C15 + 1)
		g := Genome{
			Seed: r.Uint64(), Windows: uint8(r.Uint64()), Window: uint8(r.Uint64()),
			ParPct: uint8(r.Uint64()), WSLog: uint8(r.Uint64()), Chase: uint8(r.Uint64()),
			Streams: uint8(r.Uint64()), StridePct: uint8(r.Uint64()), IndirPct: uint8(r.Uint64()),
			Probes: uint8(r.Uint64()), Reduce: uint8(r.Uint64()), Scans: uint8(r.Uint64()),
			BranchPct: uint8(r.Uint64()), StorePct: uint8(r.Uint64()), FP: uint8(r.Uint64()),
			Chain: uint8(r.Uint64()),
		}
		once := g.normalize()
		if twice := once.normalize(); twice != once {
			t.Fatalf("seed %d: normalize not idempotent:\nonce:  %+v\ntwice: %+v", seed, once, twice)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		g := Random(seed)
		got := FromBytes(g.Bytes())
		if got != g {
			t.Fatalf("seed %d: FromBytes(Bytes) mismatch:\nwant %+v\ngot  %+v", seed, g, got)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		g := Random(seed)
		got, err := ParseGenome(g.Canonical())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, g.Canonical())
		}
		if got != g {
			t.Fatalf("seed %d: ParseGenome(Canonical) mismatch:\nwant %+v\ngot  %+v", seed, g, got)
		}
		if got.Hash() != g.Hash() {
			t.Fatalf("seed %d: hash changed across canonical round-trip", seed)
		}
	}
}

func TestParseGenomeErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"wgen2 seed=1",
		"wgen1",                   // missing seed
		"wgen1 seed=1 seed=2",     // duplicate
		"wgen1 seed=zz",           // bad seed
		"wgen1 seed=1 win=3",      // bad win form
		"wgen1 seed=1 stream=1/2", // bad stream form
		"wgen1 seed=1 bogus=1",    // unknown field
		"wgen1 seed=1 chase=999",  // overflows uint8
		"wgen1 seed=1 noequals",   // not k=v
	} {
		if _, err := ParseGenome(bad); err == nil {
			t.Errorf("ParseGenome(%q) unexpectedly succeeded", bad)
		}
	}
}

var hashRE = regexp.MustCompile(`^g[0-9a-f]{16}$`)

func TestHashAndBenchName(t *testing.T) {
	g := Random(7)
	if !hashRE.MatchString(g.Hash()) {
		t.Fatalf("hash %q does not match the runstore convention", g.Hash())
	}
	if g.BenchName() != "wgen-"+g.Hash() {
		t.Fatalf("bench name %q does not embed the genome hash", g.BenchName())
	}
	// Any knob change must change the hash.
	h := g
	h.Chase = (h.Chase + 1) % (maxChase + 1)
	h = h.normalize()
	if h.Hash() == g.Hash() {
		t.Fatal("distinct genomes share a hash")
	}
}

func TestLoad(t *testing.T) {
	g := Random(99)
	// Literal canonical line.
	got, err := Load(g.Canonical())
	if err != nil || got != g {
		t.Fatalf("Load(literal): %v, %+v", err, got)
	}
	// File whose first line is a genome.
	path := filepath.Join(t.TempDir(), "g.wgen")
	if err := os.WriteFile(path, []byte(g.Canonical()+"\n; comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil || got != g {
		t.Fatalf("Load(file): %v, %+v", err, got)
	}
	if _, err := Load("/nonexistent/path.wgen"); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestIterationsBounded(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		g := Random(seed)
		n := g.Iterations()
		if n < minWindows*minWindow || n > maxWindows*maxWindow {
			t.Fatalf("seed %d: iterations %d out of range", seed, n)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	// xorshift64 has an all-zero fixed point; the constructor must dodge it.
	r := xorshift.New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded rng is stuck at zero")
	}
}

func TestBytesLength(t *testing.T) {
	if got := len(Random(1).Bytes()); got != GenomeBytes {
		t.Fatalf("Bytes() length %d, want %d", got, GenomeBytes)
	}
	// Short and long inputs must both decode to valid genomes.
	short := FromBytes([]byte{1, 2, 3})
	if short != short.normalize() {
		t.Fatal("FromBytes(short) is not normalized")
	}
	long := FromBytes(bytes.Repeat([]byte{0xFF}, 2*GenomeBytes))
	if long != long.normalize() {
		t.Fatal("FromBytes(long) is not normalized")
	}
}
