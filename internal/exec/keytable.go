package exec

// keyTable is the one hash table of the executor: an open-addressing index
// from a key's hash to the int32 id its owner gave the key. It holds no
// keys. The owner keeps them wherever they already are — the aggregation in
// its typed group-key columns, the join in the build batch's own key
// column — and decides equality; the table narrows the search to the ids
// filed under the same 32-bit hash, which it stores beside each id, so a
// slot of another key is passed over without touching any key memory and
// growth re-files ids without asking the owner for a hash again. Slots are
// one flat array, borrowed from the owner's batchMem and handed back at
// release, like every array an operator materialises into: no key costs an
// object of its own, and a warm table costs no allocation.
//
// A lookup walks the probe sequence with seek:
//
//	for i, id := t.seek(t.home(h), h); ; i, id = t.seek(i+1, h) {
//		if id < 0 {
//			// absent; i is where it belongs: t.put(i, h, newID)
//		}
//		if /* the key the owner keeps under id equals the one sought */ {
//			// found
//		}
//	}
//
// The zero value is not usable; newKeyTable sizes one.
type keyTable struct {
	slots []keySlot    // power-of-two length, linear probing
	mask  uint32       // len(slots) - 1
	shift uint8        // 32 - log2(len(slots))
	n     int          // occupied slots
	free  *[][]keySlot // where slots come from and go back to
}

// keySlot is one slot: ref is the id plus one, so that zeroed memory is an
// empty table, and hash is the full hash the id was filed under.
type keySlot struct {
	ref  int32
	hash uint32
}

// keyTableMinSlots is the smallest table: 64 bytes of slots, which the
// four-group aggregations of the TPC-H streams never outgrow.
const keyTableMinSlots = 8

// newKeyTable returns a table that takes n ids before it grows, its slots
// borrowed from m.
func newKeyTable(n int, m *batchMem) keyTable {
	slots := keyTableMinSlots
	for slots < 2*n {
		slots <<= 1
	}
	t := keyTable{free: &m.slots}
	t.resize(slots)
	return t
}

// release hands the slots back; the table is empty and unusable after it.
func (t *keyTable) release() {
	give(t.free, t.slots)
	t.slots = nil
}

func (t *keyTable) resize(slots int) {
	t.slots = takeLen(t.free, slots)
	clear(t.slots)
	t.mask = uint32(slots - 1)
	t.shift = 32
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
}

// home is where the probe sequence of hash h starts: its top bits. The
// groups of one aggregation merge partition agree in the low bits of their
// hash — the partition mask consumed those — and still spread over the
// whole table; and every
// hash filed here ends in a multiply (hashInt64, mixKey, FNV-1a), which is
// where a product's best-mixed bits are. Under hashInt64 a run of
// consecutive keys, which is what a primary key is, lands evenly spaced.
func (t *keyTable) home(h uint32) uint32 {
	return h >> t.shift
}

// seek returns the first slot at or after i (wrapping) that is empty or
// holds an id filed under h, with that id — negative for the empty slot,
// which ends the probe sequence. The table is never full, so it returns.
func (t *keyTable) seek(i, h uint32) (uint32, int32) {
	for {
		i &= t.mask
		if s := t.slots[i]; s.hash == h || s.ref == 0 {
			return i, s.ref - 1
		}
		i++
	}
}

// put files id under h in the empty slot i that seek ended on, then grows
// the table if that filled half of it: slot indexes do not survive a put.
func (t *keyTable) put(i, h uint32, id int32) {
	t.slots[i] = keySlot{ref: id + 1, hash: h}
	if t.n++; 2*t.n > len(t.slots) {
		old := t.slots
		t.resize(2 * len(old))
		for _, s := range old {
			if s.ref != 0 {
				j := t.home(s.hash)
				for t.slots[j].ref != 0 {
					j = (j + 1) & t.mask
				}
				t.slots[j] = s
			}
		}
		give(t.free, old)
	}
}

// set replaces the id in the occupied slot i, keeping its hash: the join
// build re-heads a key's chain of rows with it.
func (t *keyTable) set(i uint32, id int32) {
	t.slots[i].ref = id + 1
}
