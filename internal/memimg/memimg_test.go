package memimg

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/xorshift"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if m.ByteAt(0) != 0 || m.ReadWord(1<<40) != 0 || m.ReadFloat(12345) != 0 {
		t.Error("fresh image should read as zero everywhere")
	}
}

func TestByteRoundtrip(t *testing.T) {
	m := New()
	m.SetByte(5, 0xAB)
	if got := m.ByteAt(5); got != 0xAB {
		t.Errorf("ByteAt = %#x", got)
	}
	if m.ByteAt(4) != 0 || m.ByteAt(6) != 0 {
		t.Error("neighbouring bytes disturbed")
	}
}

func TestWordRoundtrip(t *testing.T) {
	m := New()
	m.WriteWord(64, -123456789)
	if got := m.ReadWord(64); got != -123456789 {
		t.Errorf("ReadWord = %d", got)
	}
}

func TestWordStraddlesPage(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // crosses into page 1
	m.WriteWord(addr, 0x0102030405060708)
	if got := m.ReadWord(addr); got != 0x0102030405060708 {
		t.Errorf("straddling ReadWord = %#x", got)
	}
	// Bytes landed on both pages.
	if m.ByteAt(PageSize-3) != 0x08 || m.ByteAt(PageSize) != 0x05 {
		t.Error("straddling write put bytes in the wrong place")
	}
}

func TestFloatRoundtrip(t *testing.T) {
	m := New()
	m.WriteFloat(8, 3.14159)
	if got := m.ReadFloat(8); got != 3.14159 {
		t.Errorf("ReadFloat = %g", got)
	}
}

func TestSetReadRange(t *testing.T) {
	m := New()
	src := make([]byte, 3*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	addr := uint64(PageSize - 100)
	m.SetBytes(addr, src)
	got := m.ReadRange(addr, len(src))
	if !bytes.Equal(got, src) {
		t.Fatal("multi-page SetBytes/ReadRange mismatch")
	}
}

func TestReadRangeAcrossZeroPage(t *testing.T) {
	m := New()
	m.SetByte(0, 1)
	m.SetByte(2*PageSize, 2) // page 1 never allocated
	got := m.ReadRange(0, 2*PageSize+1)
	if got[0] != 1 || got[2*PageSize] != 2 {
		t.Error("endpoints wrong")
	}
	for i := 1; i < 2*PageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d should be zero, got %d", i, got[i])
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.WriteWord(0, 42)
	c := m.Clone()
	c.WriteWord(0, 99)
	if m.ReadWord(0) != 42 {
		t.Error("clone mutated the original")
	}
	if c.ReadWord(0) != 99 {
		t.Error("clone lost its own write")
	}
}

func TestChecksumProperties(t *testing.T) {
	a, b := New(), New()
	if a.Checksum() != b.Checksum() {
		t.Error("two empty images should hash equal")
	}
	// Zero writes don't change the digest.
	a.WriteWord(512, 0)
	if a.Checksum() != b.Checksum() {
		t.Error("writing zeros changed the checksum")
	}
	a.WriteWord(512, 7)
	if a.Checksum() == b.Checksum() {
		t.Error("different contents hash equal")
	}
	b.WriteWord(512, 7)
	if a.Checksum() != b.Checksum() {
		t.Error("equal contents hash different")
	}
	// Same value at a different address differs.
	c := New()
	c.WriteWord(520, 7)
	if c.Checksum() == b.Checksum() {
		t.Error("address should affect checksum")
	}
}

func TestChecksumOrderIndependent(t *testing.T) {
	a, b := New(), New()
	addrs := []uint64{0, 5 * PageSize, PageSize, 100 * PageSize}
	for i, ad := range addrs {
		a.WriteWord(ad, int64(i+1))
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		b.WriteWord(addrs[i], int64(i+1))
	}
	if a.Checksum() != b.Checksum() {
		t.Error("checksum depends on write order")
	}
}

func TestWordPropertyRoundtrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v int64) bool {
		addr %= 1 << 30
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastWrittenWins(t *testing.T) {
	f := func(addr uint64, a, b int64) bool {
		addr %= 1 << 30
		m := New()
		m.WriteWord(addr, a)
		m.WriteWord(addr, b)
		return m.ReadWord(addr) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.FootprintBytes() != 0 {
		t.Error("empty image has footprint")
	}
	m.SetByte(0, 1)
	m.SetByte(10*PageSize, 1)
	if got := m.FootprintBytes(); got != 2*PageSize {
		t.Errorf("footprint = %d, want %d", got, 2*PageSize)
	}
}

// TestPageTranslationCachesOnlyPresentPages: reads of absent pages neither
// allocate nor poison the last-page translation, and a clone starts with
// its own translation, so writes through either image stay private.
func TestPageTranslationCachesOnlyPresentPages(t *testing.T) {
	m := New()
	m.WriteWord(8, 11)
	if m.ReadWord(3*PageSize) != 0 || m.ByteAt(5*PageSize+1) != 0 {
		t.Fatal("absent page read non-zero")
	}
	if m.FootprintBytes() != PageSize {
		t.Fatalf("reads of absent pages allocated: footprint %d", m.FootprintBytes())
	}
	m.WriteWord(3*PageSize, 33) // the page read above as absent
	if m.ReadWord(3*PageSize) != 33 || m.ReadWord(8) != 11 {
		t.Fatal("translation returned a stale page")
	}
	c := m.Clone()
	c.WriteWord(8, 99)
	m.WriteWord(3*PageSize, 44)
	if m.ReadWord(8) != 11 || c.ReadWord(3*PageSize) != 33 {
		t.Fatal("clone shares pages with its source")
	}
}

// TestPageTranslationMatchesModel drives random word and byte accesses,
// page-straddling ones included, over a few pages and checks every read
// against a flat byte model.
func TestPageTranslationMatchesModel(t *testing.T) {
	m := New()
	model := map[uint64]byte{}
	next := xorshift.New(1).Uint64
	for i := 0; i < 20000; i++ {
		addr := next() % (4 * PageSize)
		switch next() % 4 {
		case 0:
			v := next()
			m.WriteWord(addr, int64(v))
			for j := uint64(0); j < 8; j++ {
				model[addr+j] = byte(v >> (8 * j))
			}
		case 1:
			b := byte(next())
			m.SetByte(addr, b)
			model[addr] = b
		case 2:
			var want uint64
			for j := uint64(0); j < 8; j++ {
				want |= uint64(model[addr+j]) << (8 * j)
			}
			if got := uint64(m.ReadWord(addr)); got != want {
				t.Fatalf("op %d: ReadWord(%#x) = %#x, want %#x", i, addr, got, want)
			}
		default:
			if got := m.ByteAt(addr); got != model[addr] {
				t.Fatalf("op %d: ByteAt(%#x) = %#x, want %#x", i, addr, got, model[addr])
			}
		}
	}
}
