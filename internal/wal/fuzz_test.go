package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReplay: a log image is whatever the device held when the power died,
// so Replay must take arbitrary bytes — it stops at the first record it
// cannot verify, never panics, keeps nothing the image does not hold, and
// the prefix it calls valid is exactly the records it returned (no record
// past a torn or corrupt one comes back). Recover adopts that prefix.
func FuzzReplay(f *testing.F) {
	first := encodeRecord(nil, 1, []byte("first record"))
	good := encodeRecord(bytes.Clone(first), 2, bytes.Repeat([]byte{0xAB}, 70))
	f.Add(good)
	f.Add(good[:len(good)-9]) // torn tail
	badCRC := bytes.Clone(good)
	badCRC[len(first)+recHeader+3] ^= 1
	f.Add(badCRC)
	huge := bytes.Clone(first)
	binary.LittleEndian.PutUint32(huge[0:4], 0xFFFFFFFF) // a length the image cannot hold
	f.Add(huge)
	f.Add(append(bytes.Clone(good), 0, 0, 0)) // trailing garbage shorter than a header
	f.Fuzz(func(t *testing.T, img []byte) {
		recs, valid := Replay(img)
		if valid < 0 || valid > len(img) {
			t.Fatalf("valid prefix %d of a %d-byte image", valid, len(img))
		}
		var again []byte
		for _, r := range recs {
			again = encodeRecord(again, r.LSN, r.Payload)
		}
		if !bytes.Equal(again, img[:valid]) {
			t.Fatalf("%d records re-encode to %d bytes, not the %d-byte valid prefix", len(recs), len(again), valid)
		}
		if recs2, valid2 := Replay(img[:valid]); len(recs2) != len(recs) || valid2 != valid {
			t.Fatalf("replay of the valid prefix: %d records / %d bytes, first pass %d / %d", len(recs2), valid2, len(recs), valid)
		}

		eng, _, d := logRig()
		l := NewLog(eng, d, 1, 0)
		if got := l.Recover(img); len(got) != len(recs) || l.DurableBytes() != int64(valid) {
			t.Fatalf("Recover kept %d records / %d bytes, Replay %d / %d", len(got), l.DurableBytes(), len(recs), valid)
		}
		if n := len(recs); n > 0 && l.NextLSN() != recs[n-1].LSN+1 {
			t.Fatalf("next LSN %d after a log ending at %d", l.NextLSN(), recs[n-1].LSN)
		}
	})
}
