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
// compresses to, one token per value or so.
//
// Such a token is decoded inside three fixed windows, each an array
// pointer over a slice: lzFastSrc bytes of input from the token's first
// byte (it reads at most 12: length, 8 literal bytes, length, two offset
// bytes), lzFastDst bytes of output from the first position it writes (8
// literal bytes, then 16 match bytes from wherever the run ends), and
// lzFastMatch bytes at the match's source. Taking a window is its one
// bounds check — every index inside it is constant or provably below its
// size — and the loop's two limits, taken once per pass, keep the input
// and the output window whole, so that no check fails on a sound stream.
// The literal and match moves are always 8 and 16 bytes; the next token's
// moves overwrite the excess. The header is read without a branch: a
// second offset byte counts only when the first's top bit is set, and one
// whose own top bit is set leaves the offset at 1<<14 or more, which the
// range test refuses; lengths and distances are range-tested unsigned. A
// token outside the fast ranges is the general token's, which starts over
// from its first byte. The loop is a function of its own so that its
// state stays in registers.
const (
	lzFastLit   = 8
	lzFastMatch = 16
	lzFastSrc   = 16
	lzFastDst   = lzFastLit + lzFastMatch
)

// lzFastTokens decodes fast tokens from src[s:] into buf at d for as long
// as it finds them and a whole window of each fits — buf ends at the
// decode budget — and returns where it stopped. The match source never
// precedes base, where the stream's output begins.
func lzFastTokens(buf, src []byte, base, d, s int) (int, int) {
	dmax, smax := len(buf)-lzFastDst, len(src)-lzFastSrc
	for d <= dmax && s <= smax {
		in := (*[lzFastSrc]byte)(src[s : s+lzFastSrc : s+lzFastSrc])
		lit := int(in[0])
		if lit > lzFastLit {
			break
		}
		mlen, b1, b2 := int(in[lit+1]), int(in[lit+2]), int(in[lit+3])
		two := b1 >> 7
		off, e := b1&0x7f|b2<<7*two, d+lit
		if uint(mlen-1) >= lzFastMatch || uint(off-8) >= 1<<14-8 || off > e-base {
			break
		}
		out := (*[lzFastDst]byte)(buf[d : d+lzFastDst : d+lzFastDst])
		binary.LittleEndian.PutUint64(out[:], binary.LittleEndian.Uint64(in[1:]))
		// At a distance of 8 or more two 8-byte moves copy what a byte by
		// byte copy would, overlapping or not: each reads only bytes
		// already final.
		m := (*[lzFastMatch]byte)(buf[e-off : e-off+lzFastMatch : e-off+lzFastMatch])
		binary.LittleEndian.PutUint64(out[lit:lit+8:lit+8], binary.LittleEndian.Uint64(m[:]))
		binary.LittleEndian.PutUint64(out[lit+8:lit+16:lit+16], binary.LittleEndian.Uint64(m[8:]))
		d, s = e+mlen, s+lit+3+two
	}
	return d, s
}

func (lzCodec) Decode(dst, src []byte) ([]byte, error) {
	base := len(dst)
	budget := decodeBudget(len(src))
	// buf[:d] is the output so far, buf[d:] dst's spare capacity, src[s:]
	// the input left.
	buf, d, s := dst[:cap(dst)], len(dst), 0
	for {
		d, s = lzFastTokens(buf[:min(len(buf), base+budget)], src, base, d, s)
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
