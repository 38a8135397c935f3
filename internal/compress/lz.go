package compress

// LZ is a byte-oriented LZ77 codec in the LZ4 spirit: a greedy hash-chain
// match finder producing (literal run, match) tokens. It is the "heavy"
// general-purpose codec of the catalog — the role played by the commercial
// system's table compression in the paper's Figure 2 experiment: best
// ratios on mixed row data, highest CPU cost per byte.
//
// Token format, repeated until end of input:
//
//	litLen  uvarint
//	lits    litLen bytes
//	matchLen uvarint   (0 means end of stream, no offset follows)
//	offset  uvarint    (1..65535, distance back from current position)
var LZ Codec = register(lzCodec{})

type lzCodec struct{}

func (lzCodec) Name() string { return "lz" }

const (
	lzMinMatch = 4
	lzMaxDist  = 64 << 10
	lzHashBits = 14
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func (lzCodec) Encode(dst, src []byte) []byte {
	var table [1 << lzHashBits]int // position+1 of last occurrence of hash
	litStart := 0
	i := 0
	for i+lzMinMatch <= len(src) {
		h := lzHash(load32(src, i))
		cand := table[h] - 1
		table[h] = i + 1
		if cand >= 0 && i-cand <= lzMaxDist && load32(src, cand) == load32(src, i) {
			// Extend the match.
			mlen := lzMinMatch
			for i+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
				mlen++
			}
			// Emit pending literals, then the match.
			dst = putUvarint(dst, uint64(i-litStart))
			dst = append(dst, src[litStart:i]...)
			dst = putUvarint(dst, uint64(mlen))
			dst = putUvarint(dst, uint64(i-cand))
			i += mlen
			litStart = i
			continue
		}
		i++
	}
	// Trailing literals with end-of-stream marker.
	dst = putUvarint(dst, uint64(len(src)-litStart))
	dst = append(dst, src[litStart:]...)
	dst = putUvarint(dst, 0)
	return dst
}

func (lzCodec) Decode(dst, src []byte) ([]byte, error) {
	base := len(dst)
	budget := uint64(decodeBudget(len(src)))
	for {
		produced := uint64(len(dst) - base)
		litLen, k := uvarint(src)
		if k <= 0 || litLen > uint64(len(src)-k) || litLen > budget-produced {
			return dst, ErrCorrupt
		}
		src = src[k:]
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		produced += litLen

		mlen, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if mlen == 0 {
			if len(src) != 0 {
				return dst, ErrCorrupt
			}
			return dst, nil
		}
		off, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		// Compared unsigned: an offset of 2^63 or more must not wrap into
		// a plausible position.
		if off == 0 || off > produced || mlen > budget-produced {
			return dst, ErrCorrupt
		}
		// A match may overlap itself (run encoding), so the bytes written
		// so far are copied repeatedly, doubling each time, rather than
		// the whole match at once.
		start := len(dst)
		pos := start - int(off)
		dst = grow(dst, int(mlen))
		for n := 0; n < int(mlen); {
			n += copy(dst[start+n:], dst[pos:start+n])
		}
	}
}

func (lzCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 8.0, DecodeCyclesPerByte: 2.4}
}
