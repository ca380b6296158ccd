package workload

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/xorshift"
)

type mesaParams struct {
	Window      int // tiles per parallel region
	Windows     int
	Tile        int // pixels per tile (per iteration)
	SeqIters    int
	TexSamples  int // texels filtered per tile (a sliding window)
	AtlasDrift  int // atlas-region drift per tile (texels)
	AtlasSpread int // atlas-region jitter (texels)
}

func mesaDefaults(scale int) mesaParams {
	return mesaParams{
		Window:      16,
		Windows:     96 * scale,
		Tile:        4, // half a cache block: adjacent iterations share blocks
		SeqIters:    600,
		TexSamples:  16,
		AtlasDrift:  4,
		AtlasSpread: 8,
	}
}

// Mesa returns the 177.mesa stand-in: a software pixel pipeline streaming a
// texture into a framebuffer with a blend. The access pattern is perfectly
// regular, so next-line effects (NLP and the WEC's next-line prefetch)
// dominate — matching the paper's report of the largest miss-count
// reduction on mesa.
func Mesa() *Workload {
	return &Workload{
		Name:  "177.mesa",
		Short: "mesa",
		Suite: "SPEC2000/FP",
		Build: func(scale int) (*isa.Program, error) { return mesaBuild(mesaDefaults(scale)) },
	}
}

func mesaData(p mesaParams) (tex, fb []int64, atlas []int64, gamma []int64) {
	r := xorshift.New(177)
	tiles := p.Windows*p.Window + Slack
	pixels := tiles * p.Tile
	texels := tiles*p.AtlasDrift + p.AtlasSpread + p.TexSamples + 8
	tex = make([]int64, texels)
	fb = make([]int64, pixels)
	for i := range tex {
		tex[i] = int64(r.Intn(1 << 24))
	}
	for i := range fb {
		fb[i] = int64(r.Intn(1 << 24))
	}
	// Texture filtering over a sliding atlas window: each tile samples
	// TexSamples texels starting near tile*AtlasDrift, so adjacent tiles
	// filter heavily overlapping texel runs — a wrong thread's sampling
	// prefetches most of the window its TU's next correct tile needs.
	atlas = make([]int64, tiles)
	for t := range atlas {
		base := t*p.AtlasDrift + r.Intn(p.AtlasSpread)
		atlas[t] = int64(8 * base)
	}
	// Hot gamma/colormap table applied to every filtered value.
	gamma = make([]int64, 256)
	for i := range gamma {
		gamma[i] = int64((i*i)>>4) + int64(r.Intn(3))
	}
	return tex, fb, atlas, gamma
}

// MesaReference computes the expected framebuffer contents.
func MesaReference(scale int) []int64 {
	p := mesaDefaults(scale)
	tex, fb, atlas, gamma := mesaData(p)
	out := make([]int64, len(fb))
	copy(out, fb)
	tiles := p.Windows * p.Window
	for t := 0; t < tiles; t++ {
		texBase := int(atlas[t] / 8)
		var tsum int64
		for k := 0; k < p.TexSamples; k++ {
			tsum += tex[texBase+k]
		}
		avg := gamma[(tsum>>4)&255]
		for k := 0; k < p.Tile; k++ {
			i := t*p.Tile + k
			// blend: fb = (3*fb + gamma-corrected filter) >> 2
			out[i] = (3*out[i] + avg) >> 2
		}
	}
	return out
}

func mesaBuild(p mesaParams) (*isa.Program, error) {
	b := asm.New()
	tex, fb, atlas, gamma := mesaData(p)
	texArr := b.Alloc("tex", 8*len(tex), 64)
	fbArr := b.Alloc("fb", 8*len(fb), 64)
	atlasArr := b.Alloc("atlas", 8*len(atlas), 64)
	gammaArr := b.Alloc("gamma", 8*len(gamma), 64)
	scratch := b.Alloc("scratch", 8*128, 64)
	result := b.Alloc("result", 8, 0)
	for i, v := range tex {
		b.InitWord(texArr+uint64(8*i), v)
	}
	for i, v := range fb {
		b.InitWord(fbArr+uint64(8*i), v)
	}
	for i, v := range atlas {
		b.InitWord(atlasArr+uint64(8*i), v)
	}
	for i, v := range gamma {
		b.InitWord(gammaArr+uint64(8*i), v)
	}

	b.Li(4, int64(texArr))
	b.Li(5, int64(fbArr))
	b.Li(6, int64(p.Tile))
	b.Li(7, int64(atlasArr))
	b.Li(8, int64(p.TexSamples))
	b.Li(3, int64(gammaArr))
	b.Li(21, 0)
	b.Li(22, int64(p.Windows))
	b.Li(23, int64(p.Window))

	b.Label("mesa_outer")
	emitSeqWork(b, "mesa_seq", scratch, p.SeqIters)
	b.Op3(isa.MUL, regI, 21, 23)
	b.Op3(isa.ADD, regEnd, regI, 23)
	emitRegion(b, regionSpec{
		name: "mesa",
		mask: []int{1, 2, 3, 4, 5, 6, 7, 8, 21, 22, 23},
		body: func() {
			// Tile base: i*Tile*8 bytes; texture window through the atlas.
			b.Op3(isa.MUL, 10, 9, 6)
			b.OpI(isa.SLLI, 10, 10, 3)
			b.OpI(isa.SLLI, 11, 9, 3)
			b.Op3(isa.ADD, 11, 11, 7)
			b.Ld(11, 0, 11)           // atlas[t]: texture byte offset
			b.Op3(isa.ADD, 11, 11, 4) // tex ptr
			b.Op3(isa.ADD, 12, 10, 5) // fb ptr
			// Filter: sum TexSamples texels.
			b.Li(13, 0) // k
			b.Li(14, 0) // tsum
			b.Label("mesa_tx")
			b.Ld(15, 0, 11)
			b.Op3(isa.ADD, 14, 14, 15)
			b.OpI(isa.ADDI, 11, 11, 8)
			b.OpI(isa.ADDI, 13, 13, 1)
			b.Br(isa.BLT, 13, 8, "mesa_tx")
			b.OpI(isa.SRAI, 14, 14, 4)
			// Hot gamma lookup: gamma[avg & 255].
			b.OpI(isa.ANDI, 14, 14, 255)
			b.OpI(isa.SLLI, 14, 14, 3)
			b.Op3(isa.ADD, 14, 14, 3)
			b.Ld(14, 0, 14)
			// Blend the tile's pixels with the corrected value.
			b.Li(13, 0)
			b.Label("mesa_px")
			b.Ld(15, 0, 12) // fb pixel
			// fb = (3*fb + avg) >> 2
			b.OpI(isa.SLLI, 16, 15, 1)
			b.Op3(isa.ADD, 16, 16, 15)
			b.Op3(isa.ADD, 16, 16, 14)
			b.OpI(isa.SRAI, 16, 16, 2)
			b.St(16, 0, 12)
			b.OpI(isa.ADDI, 12, 12, 8)
			b.OpI(isa.ADDI, 13, 13, 1)
			b.Br(isa.BLT, 13, 6, "mesa_px")
		},
	})
	b.OpI(isa.ADDI, 21, 21, 1)
	b.Br(isa.BLT, 21, 22, "mesa_outer")

	emitReduce(b, "mesa_red", fbArr, p.Windows*p.Window*p.Tile, 64, result)
	b.Halt()
	return b.Build()
}
