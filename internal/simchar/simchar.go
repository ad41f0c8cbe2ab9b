// Package simchar builds the SimChar homoglyph database — the paper's key
// technical contribution (Section 3.3). Given a bitmap font and the set of
// IDNA-permitted code points, it rasterizes every covered glyph, finds all
// pairs within the pixel-distance threshold Δ ≤ θ, and eliminates sparse
// characters, yielding an automatically maintained homoglyph database.
package simchar

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/hexfont"
	"repro/internal/ucd"
)

// DefaultThreshold is the paper's empirically validated Δ threshold
// (Section 4.1: pairs at Δ=4 score "confusing", Δ=5 "distinct").
const DefaultThreshold = 4

// DefaultMinPixels is the paper's Step III sparse-character cutoff.
const DefaultMinPixels = 10

// Pair is one homoglyph pair with its pixel distance.
type Pair struct {
	A, B  rune // A < B
	Delta int
}

// DB is a built SimChar database: the homoglyph pairs and, for each
// character participating in at least one pair, its partners.
type DB struct {
	pairs []Pair
	// chars are the participating characters, ascending; character i's
	// partners, ascending, are partners[ends[i]:ends[i+1]].
	chars    []rune
	ends     []int32
	partners []rune
}

// Options configures the build.
type Options struct {
	Threshold   int  // Δ cutoff (default 4)
	MinPixels   int  // sparse cutoff (default 10)
	Workers     int  // parallel Δ workers (default GOMAXPROCS)
	Naive       bool // use the O(n²) scan instead of the banded index (ablation)
	NoPrefilter bool // disable the popcount prefilter (ablation)
}

func (o *Options) fill() {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.MinPixels == 0 {
		o.MinPixels = DefaultMinPixels
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Timings reports the wall-clock cost of each build stage, the rows of the
// paper's Table 5.
type Timings struct {
	RasterizeImages  time.Duration
	ComputePairwise  time.Duration
	EliminateSparse  time.Duration
	CandidatePairs   int // pairs whose Δ was actually computed
	ComparisonsSaved int // naive pair count minus candidates
}

// Build constructs SimChar from the font restricted to the permitted set
// (the paper uses IDNA ∩ Unifont).
func Build(font *hexfont.Font, permitted *ucd.RuneSet, opt Options) (*DB, Timings) {
	opt.fill()
	var tm Timings

	// Step I: rasterize the permitted, covered glyphs.
	start := time.Now()
	var runes []rune
	for _, r := range font.Runes() {
		if permitted == nil || permitted.Contains(r) {
			runes = append(runes, r)
		}
	}
	images := make([]*bitmap.Image, len(runes))
	pixels := make([]int, len(runes))
	parallelFor(len(runes), opt.Workers, func(i int) {
		g, _ := font.Glyph(runes[i])
		images[i] = g.Rasterize()
		pixels[i] = images[i].PixelCount()
	})
	tm.RasterizeImages = time.Since(start)

	// Step III is applied before the pairwise scan: sparse characters can
	// never appear in the output, so excluding them first is equivalent to
	// the paper's post-filter and shrinks the candidate space. (The
	// equivalence is asserted by tests.)
	start = time.Now()
	keep := make([]int, 0, len(runes))
	for i := range runes {
		if pixels[i] >= opt.MinPixels {
			keep = append(keep, i)
		}
	}
	tm.EliminateSparse = time.Since(start)

	// Step II: pairwise Δ. The banded pigeonhole index is only sound
	// while Bands > Threshold (two images within Δ of each other must
	// share at least one bit-identical band); for larger thresholds
	// fall back to the exhaustive scan rather than silently missing
	// pairs.
	start = time.Now()
	var pairs []Pair
	if opt.Naive || opt.Threshold >= bitmap.Bands {
		pairs, tm.CandidatePairs = naiveScan(runes, images, pixels, keep, opt)
	} else {
		pairs, tm.CandidatePairs = bandedScan(runes, images, pixels, keep, opt)
	}
	tm.ComputePairwise = time.Since(start)
	total := len(keep) * (len(keep) - 1) / 2
	tm.ComparisonsSaved = total - tm.CandidatePairs

	slices.SortFunc(pairs, comparePairs)
	return fromPairs(pairs), tm
}

// naiveScan is the paper's literal O(n²) pairwise computation, kept as the
// ablation baseline. The popcount prefilter (|pc(a)−pc(b)| > θ ⇒ Δ > θ)
// can be disabled too, giving the fully naive cost of Table 5.
func naiveScan(runes []rune, images []*bitmap.Image, pixels []int, keep []int, opt Options) ([]Pair, int) {
	type result struct {
		pairs []Pair
		cands int
	}
	results := make([]result, opt.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []Pair
			cands := 0
			for ii := w; ii < len(keep); ii += opt.Workers {
				i := keep[ii]
				for jj := ii + 1; jj < len(keep); jj++ {
					j := keep[jj]
					if !opt.NoPrefilter {
						if d := pixels[i] - pixels[j]; d > opt.Threshold || -d > opt.Threshold {
							continue
						}
					}
					cands++
					if d := bitmap.DeltaCapped(images[i], images[j], opt.Threshold); d <= opt.Threshold {
						local = append(local, orderedPair(runes[i], runes[j], d))
					}
				}
			}
			results[w] = result{local, cands}
		}(w)
	}
	wg.Wait()
	var pairs []Pair
	cands := 0
	for _, r := range results {
		pairs = append(pairs, r.pairs...)
		cands += r.cands
	}
	return pairs, cands
}

// bandedScan finds candidate pairs with the pigeonhole band index: an image
// is split into Bands disjoint row groups; Δ ≤ θ < Bands implies at least
// one group is bit-identical, so hashing each group and comparing only
// within hash buckets finds every qualifying pair while skipping almost all
// of the n² comparisons.
//
// A pair can collide in several bands; exactly one bucket must own the
// comparison. Ownership is structural — the first band in which the two
// images share a key owns the pair — so workers dedup with a handful of
// uint64 compares against precomputed keys instead of serializing on a
// shared seen-map.
func bandedScan(runes []rune, images []*bitmap.Image, pixels []int, keep []int, opt Options) ([]Pair, int) {
	keys := make([][bitmap.Bands]uint64, len(images))
	parallelFor(len(keep), opt.Workers, func(ki int) {
		i := keep[ki]
		for b := 0; b < bitmap.Bands; b++ {
			keys[i][b] = images[i].BandKey(b)
		}
	})

	type bucketKey struct {
		band int
		key  uint64
	}
	buckets := make(map[bucketKey][]int, len(keep)*2)
	for _, i := range keep {
		for b := 0; b < bitmap.Bands; b++ {
			k := bucketKey{b, keys[i][b]}
			buckets[k] = append(buckets[k], i)
		}
	}
	type bandBucket struct {
		band    int
		members []int
	}
	bucketList := make([]bandBucket, 0, len(buckets))
	for k, members := range buckets {
		if len(members) > 1 {
			bucketList = append(bucketList, bandBucket{k.band, members})
		}
	}

	type result struct {
		pairs []Pair
		cands int
	}
	results := make([]result, opt.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []Pair
			localCands := 0
			for bi := w; bi < len(bucketList); bi += opt.Workers {
				band, members := bucketList[bi].band, bucketList[bi].members
				for x := 0; x < len(members); x++ {
					i := members[x]
					for y := x + 1; y < len(members); y++ {
						j := members[y]
						if !opt.NoPrefilter {
							if d := pixels[i] - pixels[j]; d > opt.Threshold || -d > opt.Threshold {
								continue
							}
						}
						if firstSharedBand(&keys[i], &keys[j]) != band {
							continue // an earlier band's bucket owns this pair
						}
						localCands++
						if d := bitmap.DeltaCapped(images[i], images[j], opt.Threshold); d <= opt.Threshold {
							local = append(local, orderedPair(runes[i], runes[j], d))
						}
					}
				}
			}
			results[w] = result{local, localCands}
		}(w)
	}
	wg.Wait()
	var pairs []Pair
	cands := 0
	for _, r := range results {
		pairs = append(pairs, r.pairs...)
		cands += r.cands
	}
	return pairs, cands
}

// firstSharedBand returns the lowest band index in which the two key
// vectors agree, or Bands if they never do.
func firstSharedBand(a, b *[bitmap.Bands]uint64) int {
	for band := 0; band < bitmap.Bands; band++ {
		if a[band] == b[band] {
			return band
		}
	}
	return bitmap.Bands
}

func orderedPair(a, b rune, d int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b, Delta: d}
}

// parallelFor runs f(i) for i in [0,n) across workers goroutines.
func parallelFor(n, workers int, f func(int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// FromPairs builds a database directly from a pair list — the snapshot
// load path, which must reconstruct the component database without a
// font or Δ scan. Pairs are copied, normalized (A < B) and sorted, so
// the result is identical to a Build that produced the same pair set.
func FromPairs(pairs []Pair) *DB {
	cp := make([]Pair, len(pairs))
	for i, p := range pairs {
		cp[i] = orderedPair(p.A, p.B, p.Delta)
	}
	slices.SortFunc(cp, comparePairs)
	return fromPairs(cp)
}

// comparePairs orders pairs by A, then B.
func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
}

// fromPairs lays the partner lists out in one array, rune by rune in
// ascending order. pairs are normalized (A ≤ B) and sorted, so a rune's
// list is the A of every pair whose B it is, then the B of every pair
// whose A it is. Both runs ascend, the first holds no partner above the
// rune and the second none below it, so the list ascends as a whole.
// The second run is a run of pairs as they stand; the first is a run
// of byB, the pairs keyed by (B, A) and sorted. Pairs out of order
// would leave chars out of order for row's binary search, so they
// panic here instead.
func fromPairs(pairs []Pair) *DB {
	if !slices.IsSortedFunc(pairs, comparePairs) || slices.ContainsFunc(pairs, func(p Pair) bool { return p.A > p.B }) {
		panic("simchar: pairs not normalized and sorted")
	}
	byB := make([]uint64, len(pairs))
	for i, p := range pairs {
		byB[i] = sortKey(p.B)<<32 | sortKey(p.A)
	}
	slices.Sort(byB)
	db := &DB{
		pairs:    pairs,
		chars:    make([]rune, 0, 2*len(pairs)),
		ends:     make([]int32, 1, 2*len(pairs)+1),
		partners: make([]rune, 0, 2*len(pairs)),
	}
	for i, j := 0, 0; i < len(pairs) || j < len(byB); {
		var r rune
		switch {
		case j == len(byB):
			r = pairs[i].A
		case i == len(pairs):
			r = fromSortKey(byB[j] >> 32)
		default:
			r = min(pairs[i].A, fromSortKey(byB[j]>>32))
		}
		for ; j < len(byB) && fromSortKey(byB[j]>>32) == r; j++ {
			db.partners = append(db.partners, fromSortKey(byB[j]))
		}
		for ; i < len(pairs) && pairs[i].A == r; i++ {
			db.partners = append(db.partners, pairs[i].B)
		}
		db.chars = append(db.chars, r)
		db.ends = append(db.ends, int32(len(db.partners)))
	}
	return db
}

// sortKey maps a rune to 32 bits that sort as the rune does.
func sortKey(r rune) uint64 { return uint64(uint32(r) ^ 1<<31) }

// fromSortKey inverts sortKey on the low 32 bits of k.
func fromSortKey(k uint64) rune { return rune(uint32(k) ^ 1<<31) }

// row returns r's partners, ascending, or nil when r is in no pair.
func (db *DB) row(r rune) []rune {
	i, ok := slices.BinarySearch(db.chars, r)
	if !ok {
		return nil
	}
	return db.partners[db.ends[i]:db.ends[i+1]:db.ends[i+1]]
}

// Pairs returns the homoglyph pairs, sorted.
func (db *DB) Pairs() []Pair { return db.pairs }

// NumPairs returns the number of homoglyph pairs (Table 1's pair counts).
func (db *DB) NumPairs() int { return len(db.pairs) }

// Chars returns the set of characters participating in at least one pair
// (Table 1's character counts).
func (db *DB) Chars() *ucd.RuneSet {
	return ucd.NewRuneSet(db.chars...)
}

// AppendChars appends the characters of Chars to dst, ascending, and
// returns the extended slice.
func (db *DB) AppendChars(dst []rune) []rune {
	return append(dst, db.chars...)
}

// Confusable reports whether (a, b) is a SimChar pair.
func (db *DB) Confusable(a, b rune) bool {
	if a == b {
		return true
	}
	for _, p := range db.row(a) {
		if p == b {
			return true
		}
		if p > b {
			break
		}
	}
	return false
}

// Homoglyphs returns the partners of r (characters within Δ ≤ θ of it).
func (db *DB) Homoglyphs(r rune) []rune {
	row := db.row(r)
	return append(make([]rune, 0, len(row)), row...)
}

// Write serializes the database as lines of "AAAA BBBB delta".
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# SimChar homoglyph pairs: codepointA codepointB delta"); err != nil {
		return err
	}
	for _, p := range db.pairs {
		if _, err := fmt.Fprintf(bw, "%04X %04X %d\n", p.A, p.B, p.Delta); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the Write format.
func Read(r io.Reader) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var pairs []Pair
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("simchar: line %d: want 'A B delta'", lineNo)
		}
		a, err := strconv.ParseUint(fields[0], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("simchar: line %d: %v", lineNo, err)
		}
		b, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("simchar: line %d: %v", lineNo, err)
		}
		d, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("simchar: line %d: %v", lineNo, err)
		}
		pairs = append(pairs, orderedPair(rune(a), rune(b), d))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(pairs, comparePairs)
	return fromPairs(pairs), nil
}
