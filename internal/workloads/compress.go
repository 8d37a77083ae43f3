package workloads

import (
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// Compress models SpecInt95 compress (LZW): the program genuinely LZW-codes
// a synthetic text corpus. Like the original, the dictionary is an
// open-addressing hash pair — htab holds (prefix, char) keys, codetab the
// assigned codes — probed once or twice per input byte, with the input and
// output streamed around it. Popular digrams keep a hot, near-L1-sized
// subset of the tables live; the byte streams are the pollution the bypass
// mechanism exists to divert. Each block is preceded by an analyzable
// table-reset loop (block-mode compress), the program's small regular
// component.
func Compress() Workload {
	return Workload{
		Name:   "compress",
		Class:  Irregular,
		Models: "SpecInt95 compress (LZW dictionary coding)",
		Build:  buildCompress,
	}
}

const (
	compressInput    = 200000
	compressBlock    = 20000
	compressHtabSize = 4096
	// compressMaxFill caps the load factor so probe chains stay short
	// (block-mode compress stops growing the dictionary when it
	// saturates).
	compressMaxFill = 3584
	compressMaxLen  = 8
)

func buildCompress() *loopir.Program {
	return buildCompressSized(compressInput, compressBlock, compressHtabSize, compressMaxFill)
}

// buildCompressSized builds the LZW program over an input of the given
// size, split into blocks, with a hash dictionary of htabSize slots capped
// at maxFill entries. The tiny golden-trace workloads shrink all four; the
// hot-dictionary structure survives at any scale.
func buildCompressSized(input, block, htabSize, maxFill int) *loopir.Program {
	sp := mem.NewSpace()
	in := mem.NewArray(sp, "input", 1, input, 1)
	out := mem.NewArray(sp, "output", 8, input/2, 1)
	htab := mem.NewArray(sp, "htab", 8, htabSize, 1)
	codetab := mem.NewArray(sp, "codetab", 8, htabSize, 1)

	// Synthetic English-ish corpus: skewed letters with word structure,
	// so digram frequencies are heavy-tailed and the dictionary develops
	// hot entries.
	rng := db.NewRNG(0xC0DE_C0DE)
	for i := 0; i < input; i++ {
		var b int64
		switch {
		case rng.Intn(6) == 0:
			b = 32 // space
		default:
			b = int64(97 + rng.Skewed(26, 2.2))
		}
		in.SetData(b, i, 0)
	}

	prog := &loopir.Program{Name: "compress"}
	outPos := 0
	blocks := input / block
	for blk := 0; blk < blocks; blk++ {
		blkBase := blk * block
		s := itoa(blk)

		// Regular part: reset the hash table for the new block.
		clear := stmt("htab-clear", 1,
			loopir.AffineRef(htab, true, v("rst"), c(0)))
		prog.Body = append(prog.Body,
			loopir.ForLoop("rst"+s, htabSize,
				renameStmtVars(clear, "rst", "rst"+s)))

		lzw := &loopir.Stmt{
			Name: "lzw-block",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassIndexed, htab, true),
				loopir.OpaqueRef(loopir.ClassIndexed, codetab, true),
				loopir.OpaqueRef(loopir.ClassPointer, in, false),
				loopir.OpaqueRef(loopir.ClassPointer, out, true),
			},
			Run: func(ctx *loopir.Ctx) {
				for i := 0; i < htabSize; i++ {
					htab.SetData(0, i, 0)
				}
				nextCode := int64(256)
				prefix := int64(-1)
				emit := func(code int64) {
					ctx.StoreVal(out, code, outPos, 0)
					outPos++
					if outPos == input/2 {
						outPos = 0
					}
				}
				for i := 0; i < block; i++ {
					ch := ctx.LoadVal(in, blkBase+i, 0)
					ctx.Compute(4)
					if prefix < 0 {
						prefix = ch
						continue
					}
					key := prefix<<9 | ch
					h := int(uint64(key) * 0x9E3779B97F4A7C15 >> 52 % uint64(htabSize))
					disp := 1 + int(key)%97
					found := false
					for probe := 0; probe < compressMaxLen; probe++ {
						k := ctx.LoadVal(htab, h, 0)
						ctx.Compute(2)
						if k == 0 {
							// Empty slot: add the new string if the
							// dictionary is still growing.
							if nextCode < int64(maxFill) {
								ctx.StoreVal(htab, key, h, 0)
								ctx.StoreVal(codetab, nextCode, h, 0)
								nextCode++
							}
							break
						}
						if k == key {
							prefix = ctx.LoadVal(codetab, h, 0)
							found = true
							break
						}
						h = (h + disp) % htabSize
					}
					if !found {
						emit(prefix)
						prefix = ch
					}
				}
				if prefix >= 0 {
					emit(prefix)
				}
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("blk"+s, 1, lzw))
	}
	return prog
}
