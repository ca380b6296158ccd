package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

type gzipParams struct {
	BufWords int // input buffer size in 8-byte words
	HashBits int // hash table of 1<<HashBits entries
	Window   int // match positions per parallel region
	Stride   int // words between consecutive match positions
	Windows  int
	CmpLen   int // words compared per candidate
	SeqIters int
}

func gzipDefaults(scale int) gzipParams {
	return gzipParams{
		BufWords: 32768, // 256 KB input
		HashBits: 12,
		Window:   16,
		Stride:   2, // adjacent match positions share cache blocks
		Windows:  24 * scale,
		CmpLen:   4,
		SeqIters: 410,
	}
}

// Gzip returns the 164.gzip stand-in: LZ-style dictionary matching. Each
// window first rebuilds a hash table over its positions sequentially (the
// deflate dictionary from the previous block), then a parallel region
// matches the window's positions against candidates found through the
// table — scattered reads through the hash plus local window compares.
func Gzip() *Workload {
	return &Workload{
		Name:  "164.gzip",
		Short: "gzip",
		Suite: "SPEC2000/INT",
		Build: func(scale int) (*isa.Program, error) { return gzipBuild(gzipDefaults(scale)) },
	}
}

// gzipHashMul is the 64-bit Fibonacci-hash multiplier (kept in a variable
// so its int64 view can be materialized without constant overflow).
var gzipHashMul uint64 = 0x9E3779B97F4A7C15

func gzipHash(v int64, bits int) int64 {
	return int64((uint64(v) * gzipHashMul) >> (64 - uint(bits)))
}

func gzipData(p gzipParams) []int64 {
	r := xorshift.New(164)
	buf := make([]int64, p.BufWords)
	// Text-like data: values drawn from a small alphabet with repeated
	// phrases so matches actually occur.
	phrase := make([]int64, 64)
	for i := range phrase {
		phrase[i] = int64(r.Intn(256))
	}
	for i := range buf {
		if r.Intn(4) == 0 {
			buf[i] = int64(r.Intn(256))
		} else {
			buf[i] = phrase[(i+r.Intn(8))%len(phrase)]
		}
	}
	return buf
}

// GzipReference computes the expected out[] (match lengths).
func GzipReference(scale int) []int64 {
	p := gzipDefaults(scale)
	buf := gzipData(p)
	hashSize := 1 << p.HashBits
	h := make([]int64, hashSize) // byte offsets into buf, 0 = "points at word 0"
	n := p.Windows * p.Window
	out := make([]int64, n)
	for w := 0; w < p.Windows; w++ {
		// Sequential phase: insert this window's positions into the table.
		for i := w * p.Window; i < (w+1)*p.Window; i++ {
			pw := i * p.Stride
			h[gzipHash(buf[pw], p.HashBits)] = int64(8 * pw)
		}
		// Parallel phase: match each position against its candidate.
		for i := w * p.Window; i < (w+1)*p.Window; i++ {
			pw := i * p.Stride
			cand := h[gzipHash(buf[pw], p.HashBits)] / 8
			var length int64
			for k := 0; k < p.CmpLen; k++ {
				if buf[int(cand)+k] != buf[pw+k] {
					break
				}
				length++
			}
			out[i] = length
		}
	}
	return out
}

func gzipBuild(p gzipParams) (*isa.Program, error) {
	b := asm.New()
	buf := gzipData(p)
	bufArr := b.Alloc("buf", 8*(len(buf)+Slack*p.Stride+p.CmpLen), 64)
	hashSize := 1 << p.HashBits
	hArr := b.Alloc("hash", 8*hashSize, 64)
	n := p.Windows * p.Window
	outArr := b.Alloc("out", 8*(n+Slack), 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)
	for i, v := range buf {
		b.InitWord(bufArr+uint64(8*i), v)
	}

	b.Li(4, int64(bufArr))
	b.Li(5, int64(hArr))
	b.Li(6, int64(outArr))
	b.Li(7, int64(gzipHashMul)) // hash multiplier (full 64-bit immediate)
	b.Li(8, int64(p.CmpLen))
	b.Li(21, 0)
	b.Li(22, int64(p.Windows))
	b.Li(23, int64(p.Window))
	b.Li(24, int64(p.Stride))

	// emitHash computes h = ((v * mul) >>u (64-bits)) * 8 + hArr into reg
	// dst, with v in reg src. Clobbers dst only.
	emitHashAddr := func(dst, src int) {
		b.Op3(isa.MUL, dst, src, 7)
		b.OpI(isa.SRLI, dst, dst, int64(64-p.HashBits))
		b.OpI(isa.SLLI, dst, dst, 3)
		b.Op3(isa.ADD, dst, dst, 5)
	}

	b.Label("gz_outer")
	emitSeqWork(b, "gz_seq", scratch, p.SeqIters)
	// Sequential dictionary insert for this window's positions.
	b.Op3(isa.MUL, 10, 21, 23) // i = w*Window
	b.Op3(isa.ADD, 11, 10, 23) // end
	b.Label("gz_ins")
	b.Op3(isa.MUL, 12, 10, 24) // pw = i*Stride (words)
	b.OpI(isa.SLLI, 12, 12, 3) // byte offset
	b.Op3(isa.ADD, 13, 12, 4)  // &buf[pw]
	b.Ld(14, 0, 13)            // v = buf[pw]
	emitHashAddr(15, 14)
	b.St(12, 0, 15) // h[hash] = byte offset of pw
	b.OpI(isa.ADDI, 10, 10, 1)
	b.Br(isa.BLT, 10, 11, "gz_ins")

	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "gz",
		mask: []int{1, 2, 4, 5, 6, 7, 8, 21, 22, 23, 24},
		body: func() {
			b.Op3(isa.MUL, 10, 9, 24) // pw (words)
			b.OpI(isa.SLLI, 10, 10, 3)
			b.Op3(isa.ADD, 10, 10, 4) // &buf[pw]
			b.Ld(11, 0, 10)           // v
			emitHashAddr(12, 11)
			b.Ld(13, 0, 12)           // candidate byte offset
			b.Op3(isa.ADD, 13, 13, 4) // &buf[cand]
			b.Li(14, 0)               // len
			b.Label("gz_cmp")
			b.Ld(15, 0, 13)
			b.Ld(16, 0, 10)
			b.Br(isa.BNE, 15, 16, "gz_done")
			b.OpI(isa.ADDI, 14, 14, 1)
			b.OpI(isa.ADDI, 13, 13, 8)
			b.OpI(isa.ADDI, 10, 10, 8)
			b.Br(isa.BLT, 14, 8, "gz_cmp")
			b.Label("gz_done")
			b.OpI(isa.SLLI, 17, 9, 3)
			b.Op3(isa.ADD, 17, 17, 6)
			b.St(14, 0, 17) // out[i] = len
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "gz_outer")

	emitReduce(b, "gz_red", outArr, n, 1, result)
	b.Halt()
	return b.Build()
}
