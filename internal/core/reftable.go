package core

import (
	"encoding/binary"
	"math/bits"
)

// refTable maps a reference skeleton to the ids of the references that
// fold to it, ascending. It is an open-addressing table with linear
// probing that holds no pointer but its key bytes: a slot holds a key's
// hash tag and number, the keys are spans of one byte array, and the id
// lists are spans of one array (compressed sparse rows). indexRefs
// builds it in its one pass over the references, writing each skeleton
// to the end of keys and keeping it there only if it is a new key.
type refTable struct {
	// slots holds tag<<32 | k for key k (numbered from 1), 0 for an
	// empty slot. Its length is a power of two, at least twice the
	// number of keys, so every probe ends at an empty slot. The tag is
	// the hash's low 32 bits and the home slot its low bits, so two keys
	// with one tag share a home.
	slots []uint64
	// bounds[k] ends key k: its bytes are keys[bounds[k-1].key:
	// bounds[k].key] and its ids ids[bounds[k-1].id:bounds[k].id].
	// bounds[0] is zero.
	bounds []keyBounds
	keys   []byte
	ids    []int32
}

// keyBounds are the end offsets of one key's bytes and of its ids.
type keyBounds struct{ key, id uint32 }

// slotsFor returns the slot count for a table of at most n keys: the
// least power of two that is at least 2n, and 1 for an empty table.
func slotsFor(n int) int {
	s := 1
	for s < 2*n {
		s <<= 1
	}
	return s
}

// lookup returns the ids of the references whose skeleton is skel, in
// ascending order, or nil when there are none. It allocates nothing.
func (t *refTable) lookup(skel []byte) []int32 {
	_, k := t.find(skel, hashKey(skel))
	if k == 0 {
		return nil
	}
	lo, hi := t.bounds[k-1].id, t.bounds[k].id
	return t.ids[lo:hi:hi]
}

// find probes for key, whose hash is h, and returns its number, or 0
// and the empty slot the probe ended at. It reads one slot per step,
// and a key's bounds and bytes only when the slot's tag matches.
func (t *refTable) find(key []byte, h uint64) (slot uint64, k uint32) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return i, 0
		}
		if uint32(e>>32) == uint32(h) {
			lo, hi := t.bounds[uint32(e)-1].key, t.bounds[uint32(e)].key
			if string(t.keys[lo:hi]) == string(key) {
				return i, uint32(e)
			}
		}
	}
}

// add looks up keys[start:], the skeleton just written after the keys,
// and returns its number. A new key is numbered, takes the empty slot
// the probe ended at and keeps its bytes, and added is set; a known
// key's bytes are cut off again.
func (t *refTable) add(start int) (k uint32, added bool) {
	key := t.keys[start:]
	h := hashKey(key)
	slot, k := t.find(key, h)
	if k != 0 {
		t.keys = t.keys[:start]
		return k, false
	}
	k = uint32(len(t.bounds))
	t.slots[slot] = uint64(uint32(h))<<32 | uint64(k)
	t.bounds = append(t.bounds, keyBounds{key: uint32(len(t.keys))})
	return k, true
}

// layOut turns the id counts in bounds into end offsets and lays the
// id lists out: key k's ids, found from last[k] back along prev, fill
// its span from the end, so each list ascends.
func (t *refTable) layOut(last, prev []int32) {
	for k := 1; k < len(t.bounds); k++ {
		t.bounds[k].id += t.bounds[k-1].id
	}
	t.ids = make([]int32, len(prev))
	for k := 1; k < len(t.bounds); k++ {
		i := t.bounds[k].id
		for id := last[k]; id >= 0; id = prev[id] {
			i--
			t.ids[i] = id
		}
	}
}

// hashKey hashes a skeleton a word at a time with no loop over its
// last bytes: a key of eight bytes or more ends with the word of its
// last eight, overlapping the one before, and a shorter key is read as
// two overlapping halves or, under four bytes, as its first, middle and
// last byte. Together with the length, which seeds the hash, each read
// covers every byte. A last 128-bit multiply folds its high half into
// the low one, so that the low bits, which pick the home slot, depend
// on all of them. The hash is fixed, not seeded: a table's references
// are the operator's, and a label can only probe it.
func hashKey(b []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	n := len(b)
	h := uint64(n) * m
	switch {
	case n >= 8:
		for i := 0; i+8 < n; i += 8 {
			h = (h ^ binary.LittleEndian.Uint64(b[i:])) * m
		}
		h = (h ^ binary.LittleEndian.Uint64(b[n-8:])) * m
	case n >= 4:
		h = (h ^ (uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<32)) * m
	case n > 0:
		h = (h ^ (uint64(b[0]) | uint64(b[n/2])<<8 | uint64(b[n-1])<<16)) * m
	}
	hi, lo := bits.Mul64(h, 0xc4ceb9fe1a85ec53)
	return hi ^ lo
}
