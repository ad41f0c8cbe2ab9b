package core

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/homoglyph"
)

// identityIndex returns a detector over refs whose fold maps every rune
// to itself, so each reference's key is its normalized form, and the
// table can be handed keys chosen for their hashes.
func identityIndex(refs []string) *Detector {
	x := &skelIndex{fold: newFoldTable(&homoglyph.FoldRows{})}
	d := &Detector{skel: x}
	x.compileGate(x.indexRefs(d, refs))
	return d
}

// keysWithHome returns n keys whose home slot in a table of the given
// slot count is home.
func keysWithHome(n, slots int, home uint64) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := "h" + strconv.Itoa(i)
		if hashKey([]byte(k))&uint64(slots-1) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// tagTwins returns two keys whose hashes agree in their low 32 bits,
// the tag a slot holds, so they share a home in every table.
func tagTwins(t *testing.T) (string, string) {
	t.Helper()
	seen := make(map[uint32]string)
	for i := 0; i < 1<<20; i++ {
		k := "t" + strconv.Itoa(i)
		tag := uint32(hashKey([]byte(k)))
		if other, ok := seen[tag]; ok {
			return other, k
		}
		seen[tag] = k
	}
	t.Fatal("no two keys share a tag")
	return "", ""
}

// assertLookups checks every key of want, and every key of absent,
// against the table.
func assertLookups(t *testing.T, name string, d *Detector, want map[string][]int32, absent []string) {
	t.Helper()
	if keys := tableKeys(t, name, &d.skel.refs); len(keys) != len(want) {
		t.Fatalf("%s: %d keys, want %d", name, len(keys), len(want))
	}
	for k, ids := range want {
		if got := d.skel.refs.lookup([]byte(k)); !slices.Equal(got, ids) {
			t.Fatalf("%s: lookup(%q) = %v, want %v", name, k, got, ids)
		}
	}
	for _, k := range absent {
		if got := d.skel.refs.lookup([]byte(k)); got != nil {
			t.Fatalf("%s: absent key %q looks up %v", name, k, got)
		}
	}
}

// TestRefTableForcedCollisions fills tables with keys chosen to collide:
// a whole table's keys on one home slot, a cluster that wraps past the
// last slot, and two keys whose tags agree, so that a tag match must
// still compare the bytes. Misses that share the home walk the whole
// cluster and end at an empty slot.
func TestRefTableForcedCollisions(t *testing.T) {
	const n = 8
	slots := slotsFor(n)
	for _, home := range []uint64{0, 5, uint64(slots - 1)} {
		keys := keysWithHome(n+3, slots, home)
		d := identityIndex(keys[:n])
		want := make(map[string][]int32)
		for i, k := range keys[:n] {
			want[k] = []int32{int32(i)}
		}
		name := "home " + strconv.FormatUint(home, 10)
		assertLookups(t, name, d, want, keys[n:])
		if len(d.skel.refs.slots) != slots {
			t.Fatalf("%s: %d slots, want %d", name, len(d.skel.refs.slots), slots)
		}
	}

	a, b := tagTwins(t)
	if a == b || uint32(hashKey([]byte(a))) != uint32(hashKey([]byte(b))) {
		t.Fatalf("%q and %q are not tag twins", a, b)
	}
	assertLookups(t, "tag twin absent", identityIndex([]string{a, "x", "y"}), map[string][]int32{a: {0}, "x": {1}, "y": {2}}, []string{b})
	assertLookups(t, "tag twins", identityIndex([]string{b, a, a, b}), map[string][]int32{b: {0}, a: {1}}, nil)
}

// TestRefTableDuplicatesAndSharedKeys: repeats are dropped with their
// runes, references that share a key keep one ascending id list, and
// the id lists are cut so that appending to one cannot reach the next.
func TestRefTableDuplicatesAndSharedKeys(t *testing.T) {
	db := testDB(t)
	refs := []string{"google", "paypal", "gооgle", "google", "GOOGLE", "gооgle", "paypa1", "paypal", "gоogle"}
	d := NewDetector(db, refs)
	wantRefs := []string{"google", "paypal", "gооgle", "paypa1", "gоogle"}
	if !slices.Equal(d.refs, wantRefs) {
		t.Fatalf("refs = %q, want %q", d.refs, wantRefs)
	}
	n := 0
	for _, ref := range wantRefs {
		n += len([]rune(ref))
	}
	if len(d.arena) != n || int(d.offs[len(d.offs)-1]) != n {
		t.Fatalf("arena holds %d runes, want %d", len(d.arena), n)
	}
	keys := tableKeys(t, "shared", &d.skel.refs)
	lists := map[int]int{}
	for _, ids := range keys {
		if !slices.IsSorted(ids) {
			t.Fatalf("ids %v do not ascend", ids)
		}
		lists[len(ids)]++
	}
	// google, gооgle and gоogle share a key, as may paypal and paypa1.
	if lists[3] != 1 {
		t.Fatalf("id list lengths %v, want one list of 3", lists)
	}
	for k := range keys {
		ids := d.skel.refs.lookup([]byte(k))
		if cap(ids) != len(ids) {
			t.Fatalf("lookup(%q) has spare capacity %d", k, cap(ids)-len(ids))
		}
	}
}

// TestRefTableEmpty: a list that keeps no reference compiles to a table
// of empty slots (one for an empty list; the slots are sized by the
// list before it is read) that every lookup misses, and detects
// nothing.
func TestRefTableEmpty(t *testing.T) {
	for _, refs := range [][]string{nil, {}, {"", "  ", "\t"}} {
		d := NewDetector(testDB(t), refs)
		x := &d.skel.refs
		if d.NumReferences() != 0 || len(x.slots) != slotsFor(len(refs)) || slices.ContainsFunc(x.slots, func(e uint64) bool { return e != 0 }) || len(x.ids) != 0 {
			t.Fatalf("%q: %d references, slots %v, %d ids", refs, d.NumReferences(), x.slots, len(x.ids))
		}
		for _, k := range []string{"", "google", "gооgle"} {
			if ids := d.skel.refs.lookup([]byte(k)); ids != nil {
				t.Fatalf("%q: lookup(%q) = %v", refs, k, ids)
			}
		}
		if ms := d.DetectDomainBackend("xn--ggle-55da.com", BackendBoth); len(ms) != 0 {
			t.Fatalf("%q: detected %v", refs, ms)
		}
	}
}

// TestHashKeyReadsEveryByte: for every key length up to three words,
// changing any one byte changes the hash, so no byte falls between the
// overlapping reads.
func TestHashKeyReadsEveryByte(t *testing.T) {
	for n := 0; n <= 24; n++ {
		key := []byte("abcdefghijklmnopqrstuvwxyz"[:n])
		h := hashKey(key)
		if n > 0 && h == hashKey(key[:n-1]) {
			t.Fatalf("%q and its prefix hash alike", key)
		}
		for i := range key {
			key[i] ^= 0x20
			if hashKey(key) == h {
				t.Fatalf("flipping byte %d of a %d-byte key leaves its hash", i, n)
			}
			key[i] ^= 0x20
		}
	}
}
