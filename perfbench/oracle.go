package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"geodabs"
)

// The oracle checks the program's answers against computations written
// here, independently of the program's search code: a brute-force
// Jaccard scan over the corpus's fingerprint sets, the generator's route
// ground truth, and a reference DTW/DFD dynamic program over its own
// haversine. It stores no copy of earlier output.

// docState is what the oracle tracks of one indexed trajectory.
type docState struct {
	rd  routeDir
	set []uint32 // sorted fingerprint terms
	pts []geodabs.Point
	// upserted is set once an upsert of this ID was acknowledged;
	// uncertain when one failed, so its indexed version is unknown.
	upserted  bool
	uncertain bool
}

// oracle holds the tracked state of every indexed document.
type oracle struct {
	fp   *geodabs.Fingerprinter
	docs []docState
	mu   sync.Mutex // guards docs during concurrent upserts
}

// newOracle fingerprints every document with the public Fingerprinter,
// on GOMAXPROCS workers. keepPoints retains the raw points for the
// reference rerank.
func newOracle(c *corpus, keepPoints bool) (*oracle, error) {
	fp, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	o := &oracle{fp: fp, docs: make([]docState, len(c.docs))}
	parallelFor(len(c.docs), func(i int) {
		t := c.docs[i]
		d := docState{rd: routeDir{t.Route, t.Dir}, set: o.terms(t.Points)}
		if keepPoints {
			d.pts = t.Points
		}
		o.docs[i] = d
	})
	return o, nil
}

// terms returns the sorted fingerprint set of a point sequence.
func (o *oracle) terms(pts []geodabs.Point) []uint32 {
	return o.fp.Fingerprint(pts).Set.ToSlice()
}

// upserted records the outcome of an upsert of id to pts, whose terms
// the caller computed.
func (o *oracle) upserted(id geodabs.ID, pts []geodabs.Point, set []uint32, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	d := &o.docs[id]
	if err != nil {
		d.uncertain = true
		return
	}
	d.set = set
	d.upserted = true
	if d.pts != nil {
		d.pts = pts
	}
}

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines and waits.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// hit is one oracle-ranked document.
type hit struct {
	id    geodabs.ID
	score float64
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].score != hs[j].score {
			return hs[i].score < hs[j].score
		}
		return hs[i].id < hs[j].id
	})
}

// jaccard returns 1 − |a∩b|/|a∪b| of two sorted term sets and whether
// they share a term.
func jaccard(a, b []uint32) (float64, bool) {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	if inter == 0 {
		return 1, false
	}
	return 1 - float64(inter)/float64(len(a)+len(b)-inter), true
}

// bruteKNN scans every document and returns the k nearest by Jaccard
// distance among those sharing a term with q, ties broken by ID.
func (o *oracle) bruteKNN(q []uint32, k int) []hit {
	var hs []hit
	for i := range o.docs {
		if d, ok := jaccard(q, o.docs[i].set); ok {
			hs = append(hs, hit{geodabs.ID(i), d})
		}
	}
	sortHits(hs)
	if len(hs) > k {
		hs = hs[:k]
	}
	return hs
}

// touchesUncertain reports whether a ranking involves a document whose
// indexed version is unknown after a failed upsert.
func (o *oracle) touchesUncertain(ids ...[]hit) bool {
	for _, hs := range ids {
		for _, h := range hs {
			if int(h.id) < len(o.docs) && o.docs[h.id].uncertain {
				return true
			}
		}
	}
	return false
}

// sameRanking compares an engine's hits with the oracle's: the same IDs
// in the same order, and scores equal within relTol of the oracle's.
func sameRanking(got []geodabs.Result, want []hit, relTol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.id {
			return fmt.Errorf("rank %d: ID %d, oracle has %d (score %.9g vs %.9g)", i, g.ID, w.id, g.Distance, w.score)
		}
		if math.Abs(g.Distance-w.score) > relTol*math.Max(1, math.Abs(w.score)) {
			return fmt.Errorf("rank %d ID %d: score %.12g, oracle has %.12g", i, g.ID, g.Distance, w.score)
		}
	}
	return nil
}

func toHits(rs []geodabs.Result) []hit {
	hs := make([]hit, len(rs))
	for i, r := range rs {
		hs[i] = hit{r.ID, r.Distance}
	}
	return hs
}

// recallAt returns |top ∩ relevant| / min(k, |relevant|), where the
// relevant documents are the indexed trajectories of the query's route
// and direction — the generator's ground truth, which upserts preserve
// because they replace a document with a trajectory of the same route
// and direction.
func (o *oracle) recallAt(q *geodabs.Trajectory, top []geodabs.Result, k int) float64 {
	rd := routeDir{q.Route, q.Dir}
	relevant := 0
	for i := range o.docs {
		if o.docs[i].rd == rd {
			relevant++
		}
	}
	if relevant == 0 {
		return 1
	}
	found := 0
	for i, h := range top {
		if i >= k {
			break
		}
		if int(h.ID) < len(o.docs) && o.docs[h.ID].rd == rd {
			found++
		}
	}
	return float64(found) / float64(min(k, relevant))
}

// checkRankings compares kNN searches of sampled queries against the
// brute-force scan and returns their mean recall@k. search runs one
// query on the engine under test.
func (r *report) checkRankings(o *oracle, engine string, qs []*geodabs.Trajectory, k int,
	search func(q *geodabs.Trajectory, terms []uint32) ([]geodabs.Result, error)) float64 {
	var recall float64
	for _, q := range qs {
		terms := o.terms(q.Points)
		got, err := search(q, terms)
		if err != nil {
			r.fail("%s: oracle search of query %d: %v", engine, q.ID, err)
			continue
		}
		want := o.bruteKNN(terms, k)
		if o.touchesUncertain(want, toHits(got)) {
			continue
		}
		if err := sameRanking(got, want, 1e-12); err != nil {
			r.fail("%s: query %d differs from the brute-force scan: %v", engine, q.ID, err)
		}
		recall += o.recallAt(q, got, k)
	}
	recall /= float64(len(qs))
	r.printf("oracle %s: %d queries equal the brute-force scan; recall@%d %.4f", engine, len(qs), k, recall)
	return recall
}

// checkRecallFloor fails the run when recall falls below the floor the
// README states for the workload.
func (r *report) checkRecallFloor(engine string, recall, floor float64) {
	if recall < floor {
		r.fail("%s: recall@10 %.4f below the floor %.2f", engine, recall, floor)
	}
}

// checkUpsertsVisible searches every document whose upsert was
// acknowledged with its own latest fingerprint at distance 0; the ID must
// be among the hits.
func (r *report) checkUpsertsVisible(o *oracle, engine string,
	search func(ctx context.Context, id geodabs.ID, d *docState) ([]geodabs.Result, error)) {
	ctx := context.Background()
	n := 0
	for i := range o.docs {
		d := &o.docs[i]
		if !d.upserted || d.uncertain {
			continue
		}
		n++
		hits, err := search(ctx, geodabs.ID(i), d)
		if err != nil {
			r.fail("%s: visibility search for upserted %d: %v", engine, i, err)
			continue
		}
		found := false
		for _, h := range hits {
			if h.ID == geodabs.ID(i) && h.Distance == 0 {
				found = true
				break
			}
		}
		if !found {
			r.fail("%s: acknowledged upsert of %d not found at distance 0", engine, i)
		}
	}
	r.printf("oracle %s: %d acknowledged upserts found", engine, n)
}

// Reference exact metrics. The ground distance is the haversine on a
// sphere of the IUGG mean radius, the radius the program uses, written
// out here so the check does not call the program's geometry.
const earthRadiusM = 6371008.8

func refHaversine(a, b geodabs.Point) float64 {
	const rad = math.Pi / 180
	la, lb := a.Lat*rad, b.Lat*rad
	sLat := math.Sin((la - lb) / 2)
	sLon := math.Sin((a.Lon - b.Lon) * rad / 2)
	h := sLat*sLat + math.Cos(la)*math.Cos(lb)*sLon*sLon
	if h > 1 {
		h = 1
	}
	return 2 * earthRadiusM * math.Asin(math.Sqrt(h))
}

// refDTW is dynamic time warping over the full n×m table.
func refDTW(p, q []geodabs.Point) float64 {
	n, m := len(p), len(q)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	t := make([]float64, (n+1)*(m+1))
	for i := range t {
		t[i] = math.Inf(1)
	}
	t[0] = 0
	w := m + 1
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := math.Min(t[(i-1)*w+j], math.Min(t[i*w+j-1], t[(i-1)*w+j-1]))
			t[i*w+j] = refHaversine(p[i-1], q[j-1]) + best
		}
	}
	return t[n*w+m]
}

// refDFD is the discrete Fréchet distance over the full n×m table.
func refDFD(p, q []geodabs.Point) float64 {
	n, m := len(p), len(q)
	if n == 0 || m == 0 {
		if n == m {
			return 0
		}
		return math.Inf(1)
	}
	t := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			d := refHaversine(p[i], q[j])
			switch {
			case i == 0 && j == 0:
				t[0] = d
			case i == 0:
				t[j] = math.Max(t[j-1], d)
			case j == 0:
				t[i*m] = math.Max(t[(i-1)*m], d)
			default:
				best := math.Min(t[(i-1)*m+j], math.Min(t[i*m+j-1], t[(i-1)*m+j-1]))
				t[i*m+j] = math.Max(best, d)
			}
		}
	}
	return t[n*m-1]
}

// refRerank is the §VI-C refinement computed by the oracle: the
// brute-force Jaccard shortlist of k×8 documents, scored with the
// reference metric and cut to the k best by (score, ID).
func (o *oracle) refRerank(q *geodabs.Trajectory, terms []uint32, k int, dtw bool) []hit {
	short := o.bruteKNN(terms, k*8)
	for i := range short {
		pts := o.docs[short[i].id].pts
		if dtw {
			short[i].score = refDTW(q.Points, pts)
		} else {
			short[i].score = refDFD(q.Points, pts)
		}
	}
	sortHits(short)
	if len(short) > k {
		short = short[:k]
	}
	return short
}
