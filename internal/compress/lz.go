package compress

import "encoding/binary"

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
var LZ Codec = lzCodec{}

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

// The fast token of Decode: every header a single byte (the offset one or
// two), a literal run of at most lzFastLit bytes and a match of at most
// lzFastMatch bytes from at least 8 bytes back — what a column of floats
// compresses to, one token per value or so. Such a token is decoded with
// three fixed-size moves; lzFastSrc is the most input that reads (length,
// 8 literal bytes, length, two offset bytes) and lzFastDst the most output
// it writes.
const (
	lzFastLit   = 8
	lzFastMatch = 16
	lzFastSrc   = 1 + lzFastLit + 1 + 2
	lzFastDst   = lzFastLit + lzFastMatch
)

func (lzCodec) Decode(dst, src []byte) ([]byte, error) {
	base := len(dst)
	budget := decodeBudget(len(src))
	// buf[:d] is the output so far, buf[d:] dst's spare capacity, src[s:]
	// the input left.
	buf, d, s := dst[:cap(dst)], len(dst), 0
	for {
		if s+lzFastSrc <= len(src) && d+lzFastDst <= len(buf) && d-base+lzFastDst <= budget && src[s] <= lzFastLit {
			// Move 8 literal bytes whatever the run's length: the match
			// overwrites the excess.
			binary.LittleEndian.PutUint64(buf[d:], binary.LittleEndian.Uint64(src[s+1:]))
			e, p := d+int(src[s]), s+1+int(src[s])
			mlen, off := int(src[p]), int(src[p+1])
			p += 2
			if off >= 0x80 {
				// A third offset byte leaves off at 1<<14 or more.
				off = off&0x7f | int(src[p])<<7
				p++
			}
			if 0 < mlen && mlen <= lzFastMatch && 8 <= off && off < 1<<14 && off <= e-base {
				// At this distance two 8-byte moves copy what a byte by
				// byte copy would, overlapping or not.
				binary.LittleEndian.PutUint64(buf[e:], binary.LittleEndian.Uint64(buf[e-off:]))
				binary.LittleEndian.PutUint64(buf[e+8:], binary.LittleEndian.Uint64(buf[e-off+8:]))
				d, s = e+mlen, p
				continue
			}
			// Anything else — the end marker, a multi-byte header, a long
			// or close match, a bad offset — is the general token's, which
			// starts over from the token's first byte.
		}
		dst, in := buf[:d], src[s:]
		produced := uint64(d - base)
		litLen, k := uvarint(in)
		if k <= 0 || litLen > uint64(len(in)-k) || litLen > uint64(budget)-produced {
			return dst, ErrCorrupt
		}
		in = in[k:]
		dst = append(dst, in[:litLen]...)
		in = in[litLen:]
		produced += litLen

		mlen, k := uvarint(in)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		in = in[k:]
		if mlen == 0 {
			if len(in) != 0 {
				return dst, ErrCorrupt
			}
			return dst, nil
		}
		off, k := uvarint(in)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		in = in[k:]
		// Compared unsigned: an offset of 2^63 or more must not wrap into
		// a plausible position.
		if off == 0 || off > produced || mlen > uint64(budget)-produced {
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
		buf, d, s = dst[:cap(dst)], len(dst), len(src)-len(in)
	}
}

func (lzCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 8.0, DecodeCyclesPerByte: 2.4}
}
