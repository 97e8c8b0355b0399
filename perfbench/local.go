package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"geodabs"
	"geodabs/internal/bitmap"
	"geodabs/internal/core"
	"geodabs/internal/index"
)

// local-dense: the embedded library at paper density. A default
// geodabs.NewIndex (shards from GOMAXPROCS) holds 20k trajectories of
// ~700 points on the default ~300 km² city.
var localSpec = corpusSpec{routes: 1000, perDirection: 10}

// localCorpusSeed fixes the local-dense corpus, so every run indexes the
// same trajectories; the run's seed draws the operation sequence (see
// README.md).
const localCorpusSeed = 1

// knn is the result count of every benchmark search.
const knn = 10

// writeEvery makes every writeEvery-th operation of a mixed phase an
// upsert.
const writeEvery = 10

// localRecallFloor is the recall@10 below which the run fails; README.md
// gives the figures it sits under.
const localRecallFloor = 0.5

// localBlock is the length of one single-stream-then-saturated block of
// a local-dense run.
const localBlock = 3 * time.Second

// oracleSample is how many held-out queries the oracle checks per engine.
const oracleSample = 60

func runLocalDense(r *report) error {
	r.zeroLayers()
	co, orc, heldSets, err := prepare(r, localSpec, localCorpusSeed, false)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)

	ix, err := timeSetups(r, 5, func() (*geodabs.Index, error) {
		ix, err := geodabs.NewIndex(geodabs.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return ix, ix.AddAll(co.dataset(), workers)
	}, func(*geodabs.Index) {})
	if err != nil {
		return err
	}
	r.printf("index: %+v", ix.Stats())
	var served *corpus // the traced run's served stack keeps a copy of a slice
	if r.cfg.trace {
		served = &corpus{docs: append([]*geodabs.Trajectory(nil), co.docs[:probeServedDocs]...), held: co.held, queries: co.queries}
	}
	// The index keeps no points: release the generated corpus, and collect
	// it now so the timed phases start from the index's own heap.
	co.docs = nil
	runtime.GC()

	pool := make([]*geodabs.Query, len(co.queries))
	for i, q := range co.queries {
		pool[i] = orc.fp.Prepare(q.Points)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	before := readGoCounters()

	// Single-stream: one closed-loop caller, raw-point kNN searches with
	// one upsert in every writeEvery operations. Operations run in whole
	// rounds of writeEvery; a traced run records spans on even rounds only
	// (see overhead).
	single := r.newPhase("single-stream")
	var searchLat, writeLat, tracedLat, plainLat samples
	sb := r.tr.buf()
	var candidates, pruned float64
	var searches int
	var op int64
	singleRound := func() {
		for k := 0; k < writeEvery; k++ {
			write := k == writeEvery-1
			traced := (op/writeEvery)%2 == 0
			var sp int32 = -1
			if traced {
				name := "geodabs.Index.Search"
				if write {
					name = "geodabs.Index.Upsert"
				}
				sp = sb.begin(name, op, -1)
			}
			if write {
				id := geodabs.ID(rng.Intn(len(orc.docs)))
				h := co.held[orc.docs[id].rd]
				t0 := time.Now()
				err := ix.Upsert(ctx, &geodabs.Trajectory{ID: id, Route: h.Route, Dir: h.Dir, Points: h.Points})
				writeLat = append(writeLat, time.Since(t0))
				sb.end(sp)
				single.record(err)
				orc.upserted(id, h.Points, heldSets[orc.docs[id].rd], err)
			} else {
				q := co.queries[rng.Intn(len(co.queries))]
				t0 := time.Now()
				res, err := ix.Search(ctx, q, geodabs.WithKNN(knn))
				d := time.Since(t0)
				sb.end(sp)
				searchLat = append(searchLat, d)
				if r.cfg.trace {
					if traced {
						tracedLat = append(tracedLat, d)
					} else {
						plainLat = append(plainLat, d)
					}
				}
				if single.record(err) {
					candidates += float64(res.Stats.Candidates)
					pruned += float64(res.Stats.Pruned)
					searches++
				}
			}
			op++
		}
	}

	// Saturated: SearchQueryBatch over the prepared pool on GOMAXPROCS
	// workers; one batch is one round.
	sat := r.newPhase("saturated")
	var done, batches int64
	var rates []float64
	var satTime float64
	batch := func() {
		sp := sb.begin("geodabs.Index.SearchQueryBatch", batches, -1)
		t0 := time.Now()
		_, err := ix.SearchQueryBatch(ctx, pool, workers, geodabs.WithKNN(knn))
		d := since(t0)
		sb.end(sp)
		satTime += d
		if err == nil {
			rates = append(rates, float64(len(pool))/d)
		}
		for range pool {
			if sat.record(err) {
				done++
			}
		}
		batches++
	}

	// The phases alternate in blocks of localBlock, a third single-stream
	// and two thirds saturated, until the run's time is up, so each phase
	// samples the host's load over the whole run rather than one stretch
	// of it.
	start := time.Now()
	for blocks := 0; blocks == 0 || time.Since(start) < total; blocks++ {
		until := time.Now().Add(localBlock / 3)
		for time.Now().Before(until) {
			singleRound()
		}
		until = time.Now().Add(localBlock - localBlock/3)
		for time.Now().Before(until) {
			batch()
		}
	}

	r.latencyLine("single-stream search", searchLat)
	r.latencyLine("single-stream upsert", writeLat)
	r.e2e("search_p50_ms", searchLat.sorted().quantileMS(0.5), "ms")
	r.e2e("write_p50_ms", writeLat.sorted().quantileMS(0.5), "ms")
	r.overhead(tracedLat, plainLat)
	if searches > 0 {
		r.setLayer("index.candidates", candidates/float64(searches))
		r.setLayer("index.pruned", pruned/float64(searches))
	}
	r.printf("saturated: %d searches in %.3f s on %d workers (%.1f/s)", done, satTime, workers, float64(done)/satTime)
	r.printf("saturated: batch rates %s", quartileText(rates))
	r.e2e("search_per_s", median(rates), "1/s")
	r.recordGo(before, readGoCounters(), single.attempted()+sat.attempted())

	if r.cfg.trace {
		if err := probeLocalLayers(r, ix, orc, co); err != nil {
			return err
		}
		if err := probeServed(r, served); err != nil {
			return err
		}
	}

	// Oracle.
	sample := co.queries[:min(oracleSample, len(co.queries))]
	recall := r.checkRankings(orc, "local index", sample, knn, func(q *geodabs.Trajectory, _ []uint32) ([]geodabs.Result, error) {
		res, err := ix.Search(ctx, q, geodabs.WithKNN(knn))
		if err != nil {
			return nil, err
		}
		return res.Hits, nil
	})
	r.checkRecallFloor("local index", recall, localRecallFloor)
	r.checkUpsertsVisible(orc, "local index", func(ctx context.Context, _ geodabs.ID, d *docState) ([]geodabs.Result, error) {
		res, err := ix.SearchQuery(ctx, geodabs.QueryFromFingerprint(&geodabs.Fingerprint{Set: bitmap.FromSlice(d.set)}), geodabs.WithMaxDistance(0))
		if err != nil {
			return nil, err
		}
		return res.Hits, nil
	})
	return nil
}

// fingerprintHeld computes the term set of every held-back trajectory,
// which upserts write and the oracle then tracks.
func fingerprintHeld(o *oracle, co *corpus) map[routeDir][]uint32 {
	out := make(map[routeDir][]uint32, len(co.held))
	for rd, t := range co.held {
		out[rd] = o.terms(t.Points)
	}
	return out
}

// probeLocalLayers measures the layers under Index.Search on a sample of
// held-out queries. Each query runs the public SearchQuery (the parent
// span) and, beside it, the two calls it is built from: core extraction
// and the index engine's AppendSearchSet on an engine holding the same
// documents; the parent's self time is what remains.
func probeLocalLayers(r *report, ix *geodabs.Index, orc *oracle, co *corpus) error {
	cfg := geodabs.DefaultConfig()
	fp, err := core.NewFingerprinter(cfg)
	if err != nil {
		return err
	}
	eng := newEngine(fp)
	sb := r.tr.buf()
	sp := sb.begin("index.AddFingerprints", 0, -1)
	start := time.Now()
	for i := range orc.docs {
		if err := eng.AddFingerprints(geodabs.ID(i), bitmap.FromSlice(orc.docs[i].set)); err != nil {
			return err
		}
	}
	r.setLayer("index.ingest_traj_per_s", float64(len(orc.docs))/since(start))
	sb.end(sp)

	ctx := context.Background()
	probe := co.queries[:min(200, len(co.queries))]
	var terms float64
	var sets []*bitmap.Bitmap
	var termSets [][]uint32
	var hitSets [][]geodabs.Result
	var dst []index.Result
	for i, q := range probe {
		parent := sb.begin("geodabs.Index.SearchQuery", int64(i), -1)
		res, err := ix.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn))
		sb.end(parent)
		if err != nil {
			return err
		}
		sp := sb.begin("core.FingerprintSet", int64(i), parent)
		set := fp.FingerprintSet(q.Points)
		sb.end(sp)
		card := set.Cardinality()
		terms += float64(card)
		sp = sb.begin("index.AppendSearchSet", int64(i), parent)
		dst, _, err = eng.AppendSearchSet(ctx, dst[:0], set, card, 1, knn)
		sb.end(sp)
		if err != nil {
			return err
		}
		sets = append(sets, set)
		termSets = append(termSets, set.ToSlice())
		hitSets = append(hitSets, res.Hits)
	}
	r.setLayer("core.terms", terms/float64(len(probe)))
	i := 0
	r.setLayer("index.allocs_per_search", mallocsPer(len(sets)*4, func() {
		s := sets[i%len(sets)]
		dst, _, _ = eng.AppendSearchSet(ctx, dst[:0], s, s.Cardinality(), 1, knn)
		i++
	}))
	for j := 0; j < 200; j++ {
		id := geodabs.ID((j * 7919) % len(orc.docs))
		h := co.held[orc.docs[id].rd]
		sp := sb.begin("index.Upsert", int64(j), -1)
		eng.Upsert(&geodabs.Trajectory{ID: id, Route: h.Route, Dir: h.Dir, Points: h.Points})
		sb.end(sp)
	}
	r.probeWire(termSets, hitSets)
	r.probeKernels(kernelPairs(probe, co.held))
	sum := r.tr.summarize()
	r.setLayer("core.extract_us", sum["core.FingerprintSet"].medianUS())
	r.setLayer("index.search_us", sum["index.AppendSearchSet"].medianUS())
	r.setLayer("index.upsert_us", sum["index.Upsert"].medianUS())
	r.setLayer("geodabs.search_self_us", sum["geodabs.Index.SearchQuery"].selfMedianUS())
	return nil
}

// newEngine builds the index engine geodabs.NewIndex builds by default:
// sharded by GOMAXPROCS, unsharded on one core.
func newEngine(fp *core.Fingerprinter) index.Engine {
	ex := index.GeodabExtractor{Fingerprinter: fp}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return index.NewSharded(ex, n)
	}
	return index.NewInverted(ex)
}

// kernelPairs pairs a few probe queries with the held-back trajectory of
// their route and direction, the kind of pair an exact rerank scores.
func kernelPairs(qs []*geodabs.Trajectory, held map[routeDir]*geodabs.Trajectory) [][2][]geodabs.Point {
	var out [][2][]geodabs.Point
	for _, q := range qs {
		if h := held[routeDir{q.Route, q.Dir}]; h != nil {
			out = append(out, [2][]geodabs.Point{q.Points, h.Points})
		}
		if len(out) == 6 {
			break
		}
	}
	return out
}
