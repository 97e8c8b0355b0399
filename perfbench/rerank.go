package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"geodabs"
	"geodabs/internal/bitmap"
	"geodabs/internal/core"
)

// rerank-exact: the §VI-C refinement. Shorter trajectories (~250 points)
// on a smaller city, indexed twice with point retention: in an embedded
// index and in a two-node in-memory cluster that scores candidates on
// the nodes behind its lower-bound gate.
var rerankSpec = corpusSpec{
	city:           geodabs.CityConfig{RadiusMeters: 2500},
	routes:         200,
	perDirection:   10,
	minRouteMeters: 1500,
}

const (
	rerankNodes = 2
	// rerankQueries is the length of the fixed query list.
	rerankQueries = 6
	// rerankCorpusSeed fixes the rerank corpus and its query list, so every
	// pass of every run scores the same candidates; the run's seed orders
	// the passes and picks the upserts (see README.md).
	rerankCorpusSeed = 1
	// rerankRecallFloor bounds recall@10 of the plain kNN searches the
	// oracle runs on this corpus (README).
	rerankRecallFloor = 0.4
	// oracleRerankSample is how many reranked queries the oracle checks
	// against its reference dynamic program.
	oracleRerankSample = 10
	// rerankRelTol is the relative tolerance between the program's DTW
	// and DFD scores and the reference dynamic program's.
	rerankRelTol = 1e-9
)

// rerankStack is one set-up: the embedded index and the cluster.
type rerankStack struct {
	ix    *geodabs.Index
	nodes []*geodabs.ShardNode
	cl    *geodabs.Cluster
}

func (s *rerankStack) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

func startRerank(co *corpus, workers int) (*rerankStack, error) {
	s := &rerankStack{}
	var err error
	if s.ix, err = geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithPointRetention()); err != nil {
		return nil, err
	}
	if err := s.ix.AddAll(co.dataset(), workers); err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < rerankNodes; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	strategy := geodabs.ShardStrategy{PrefixBits: geodabs.DefaultConfig().PrefixBits, Shards: servedShards, Nodes: rerankNodes}
	if s.cl, err = geodabs.NewCluster(geodabs.DefaultConfig(), strategy, addrs,
		geodabs.WithPointRetention(), geodabs.WithConnsPerNode(servedConnsPerNode)); err != nil {
		s.close()
		return nil, err
	}
	if err := addAll(co.docs, workers, s.cl.Add); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// metricOf alternates the exact metric by position in the query list.
func metricOf(pos int) (geodabs.RerankMetric, string) {
	if pos%2 == 0 {
		return geodabs.DTW, "DTW"
	}
	return geodabs.DFD, "DFD"
}

func runRerankExact(r *report) error {
	r.zeroLayers()
	co, orc, heldSets, err := prepare(r, rerankSpec, rerankCorpusSeed, true)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	s, err := timeSetups(r, 5, func() (*rerankStack, error) { return startRerank(co, workers) }, (*rerankStack).close)
	if err != nil {
		return err
	}
	defer s.close()
	// The engines retain the corpus's points; only the generator's own
	// bookkeeping is released, and collected before the timed passes.
	co.docs = nil
	runtime.GC()

	nodeBefore, err := s.cl.Stats()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	list := co.queries[:rerankQueries]

	// One closed-loop caller runs whole passes over the fixed query list
	// until the run's time is up. A pass visits the queries in an order
	// drawn from the seed and runs each twice, once per exact metric,
	// alternating DTW and DFD by position; every pass does the same work.
	// A position is an upsert of a random document to both engines, then
	// the reranked kNN query on the embedded index and on the cluster. An
	// untimed warm-up pass comes first. A traced run records spans on even
	// passes only.
	sb := r.tr.buf()
	var pairLat, writeLat, tracedLat, plainLat samples
	var localTime, clusterTime time.Duration
	var positions int
	var passRates []float64
	runPass := func(ph *phase, pass int, timed bool) {
		passStart := time.Now()
		order := rng.Perm(len(list))
		for k := 0; k < 2*len(list); k++ {
			pos := positions
			tb := sb
			if !timed || pass%2 != 0 {
				tb = nil
			}
			id := geodabs.ID(rng.Intn(len(orc.docs)))
			rd := orc.docs[id].rd
			h := co.held[rd]
			t := &geodabs.Trajectory{ID: id, Route: h.Route, Dir: h.Dir, Points: h.Points}
			t0 := time.Now()
			sp := tb.begin("geodabs.Index.Upsert", int64(pos), -1)
			errLocal := s.ix.Upsert(ctx, t)
			tb.end(sp)
			ph.record(errLocal)
			sp = tb.begin("geodabs.Cluster.Upsert", int64(pos), -1)
			err := s.cl.Upsert(ctx, t)
			tb.end(sp)
			ph.record(err)
			write := time.Since(t0)
			if err == nil {
				err = errLocal
			}
			orc.upserted(id, h.Points, heldSets[rd], err)

			q := list[order[k/2]]
			metric, name := metricOf(k)
			t0 = time.Now()
			sp = tb.begin("geodabs.Index.SearchQuery/"+name, int64(pos), -1)
			_, err = s.ix.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
			tb.end(sp)
			ph.record(err)
			t1 := time.Now()
			sp = tb.begin("geodabs.Cluster.SearchQuery/"+name, int64(pos), -1)
			_, err = s.cl.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
			tb.end(sp)
			ph.record(err)
			t2 := time.Now()
			if !timed {
				continue
			}
			writeLat = append(writeLat, write)
			localTime += t1.Sub(t0)
			clusterTime += t2.Sub(t1)
			pairLat = append(pairLat, t2.Sub(t0))
			if r.cfg.trace {
				if tb != nil {
					tracedLat = append(tracedLat, t2.Sub(t0))
				} else {
					plainLat = append(plainLat, t2.Sub(t0))
				}
			}
			positions++
		}
		if timed {
			passRates = append(passRates, float64(2*2*len(list))/since(passStart))
		}
	}
	runPass(r.newPhase("warm-up"), 0, false)
	ph := r.newPhase("rerank")
	before := readGoCounters()
	start := time.Now()
	passes := 0
	for ; passes == 0 || since(start) < r.cfg.seconds; passes++ {
		runPass(ph, passes, true)
	}
	elapsed := since(start)
	r.printf("rerank: %d passes, %d positions (%d queries per engine) in %.3f s", passes, positions, positions, elapsed)
	r.printf("rerank_local_per_s %.4f rerank_cluster_per_s %.4f", float64(positions)/localTime.Seconds(), float64(positions)/clusterTime.Seconds())
	r.latencyLine("reranked query pair (embedded + cluster)", pairLat)
	r.latencyLine("upsert pair (embedded + cluster)", writeLat)
	r.e2e("search_p50_ms", pairLat.sorted().quantileMS(0.5), "ms")
	r.printf("rerank: pass rates %s queries/s", quartileText(passRates))
	r.e2e("search_per_s", median(passRates), "1/s")
	r.e2e("write_p50_ms", writeLat.sorted().quantileMS(0.5), "ms")
	r.overhead(tracedLat, plainLat)
	r.recordGo(before, readGoCounters(), ph.attempted())

	nodeAfter, err := s.cl.Stats()
	if err != nil {
		return err
	}
	var scored, skipped uint64
	for i := range nodeAfter {
		scored += nodeAfter[i].RerankScored - nodeBefore[i].RerankScored
		skipped += nodeAfter[i].RerankSkipped - nodeBefore[i].RerankSkipped
	}
	r.printf("cluster rerank: %d candidates scored, %d settled by the lower bound", scored, skipped)
	if scored+skipped > 0 {
		r.setLayer("cluster.lb_skip_rate", float64(skipped)/float64(scored+skipped))
	}

	if r.cfg.trace {
		if err := probeRerankLayers(r, s, orc, co); err != nil {
			return err
		}
	}

	// Oracle.
	sample := co.queries[:min(oracleSample, len(co.queries))]
	for _, e := range []struct {
		name string
		s    geodabs.Searcher
	}{{"embedded index", s.ix}, {"cluster", s.cl}} {
		recall := r.checkRankings(orc, e.name, sample, knn, func(q *geodabs.Trajectory, _ []uint32) ([]geodabs.Result, error) {
			res, err := e.s.Search(ctx, q, geodabs.WithKNN(knn))
			if err != nil {
				return nil, err
			}
			return res.Hits, nil
		})
		r.checkRecallFloor(e.name, recall, rerankRecallFloor)
		r.checkUpsertsVisible(orc, e.name, func(ctx context.Context, _ geodabs.ID, d *docState) ([]geodabs.Result, error) {
			res, err := e.s.SearchQuery(ctx, geodabs.QueryFromFingerprint(&geodabs.Fingerprint{Set: bitmap.FromSlice(d.set)}), geodabs.WithMaxDistance(0))
			if err != nil {
				return nil, err
			}
			return res.Hits, nil
		})
	}
	r.checkReranks(s, orc, co.queries[:min(oracleRerankSample, len(co.queries))])
	return nil
}

// checkReranks compares reranked top-k of both engines with the oracle's
// reference dynamic program, and the cluster's with the embedded index's.
func (r *report) checkReranks(s *rerankStack, orc *oracle, qs []*geodabs.Trajectory) {
	ctx := context.Background()
	for pos, q := range qs {
		metric, name := metricOf(pos)
		want := orc.refRerank(q, orc.terms(q.Points), knn, name == "DTW")
		local, err := s.ix.Search(ctx, q, geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
		if err != nil {
			r.fail("embedded %s rerank of query %d: %v", name, q.ID, err)
			continue
		}
		remote, err := s.cl.Search(ctx, q, geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
		if err != nil {
			r.fail("cluster %s rerank of query %d: %v", name, q.ID, err)
			continue
		}
		if orc.touchesUncertain(want, toHits(local.Hits)) {
			continue
		}
		if err := sameRanking(local.Hits, want, rerankRelTol); err != nil {
			r.fail("embedded %s rerank of query %d differs from the reference DP: %v", name, q.ID, err)
		}
		if err := sameRanking(remote.Hits, toHits(local.Hits), 0); err != nil {
			r.fail("cluster %s rerank of query %d differs from the embedded index: %v", name, q.ID, err)
		}
	}
	r.printf("oracle rerank: %d queries equal the reference DP on both engines; cluster top-k equals embedded top-k", len(qs))
}

// probeRerankLayers splits a reranked query into its fingerprint
// shortlist and its exact refinement on a sample of held-out queries.
// Each engine's reranked query (parent) runs beside the same kNN search
// with the shortlist's size and no rerank (child); the parent's self time
// is the engine's rerank stage, the distance kernels it calls included.
func probeRerankLayers(r *report, s *rerankStack, orc *oracle, co *corpus) error {
	ctx := context.Background()
	sb := r.tr.buf()
	probe := co.queries[:min(16, len(co.queries))]
	var cells float64
	var pairs [][2][]geodabs.Point
	var localSelf, clusterSelf []float64
	fp, err := core.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		return err
	}
	var terms float64
	for i, q := range probe {
		metric, name := metricOf(i)
		sp := sb.begin("core.FingerprintSet", int64(i), -1)
		set := fp.FingerprintSet(q.Points)
		sb.end(sp)
		terms += float64(set.Cardinality())
		short := orc.bruteKNN(set.ToSlice(), knn*8)

		parent := sb.begin("probe.geodabs.Index.rerank/"+name, int64(i), -1)
		_, err := s.ix.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
		pd := sb.end(parent)
		if err != nil {
			return err
		}
		sp = sb.begin("probe.geodabs.Index.shortlist", int64(i), parent)
		_, err = s.ix.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn*8))
		sd := sb.end(sp)
		if err != nil {
			return err
		}
		localSelf = append(localSelf, float64(pd-sd)/1e3)

		parent = sb.begin("probe.geodabs.Cluster.rerank/"+name, int64(i), -1)
		_, err = s.cl.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn), geodabs.WithExactRerank(metric))
		pd = sb.end(parent)
		if err != nil {
			return err
		}
		sp = sb.begin("probe.geodabs.Cluster.shortlist", int64(i), parent)
		_, err = s.cl.SearchQuery(ctx, geodabs.NewQuery(q.Points), geodabs.WithKNN(knn*8))
		sd = sb.end(sp)
		if err != nil {
			return err
		}
		clusterSelf = append(clusterSelf, float64(pd-sd)/1e3)

		for _, h := range short {
			pts := orc.docs[h.id].pts
			cells += float64(len(q.Points) * len(pts))
			if len(pairs) < 6 {
				pairs = append(pairs, [2][]geodabs.Point{q.Points, pts})
			}
		}
	}
	r.setLayer("core.terms", terms/float64(len(probe)))
	r.setLayer("distance.cells_per_query", cells/float64(len(probe)))
	r.setLayer("geodabs.rerank_self_us", median(localSelf))
	r.setLayer("cluster.rerank_us", median(clusterSelf))
	r.probeKernels(pairs)
	sum := r.tr.summarize()
	r.setLayer("core.extract_us", sum["core.FingerprintSet"].medianUS())
	if l := sum["geodabs.Cluster.Upsert"]; l != nil {
		r.setLayer("cluster.upsert_us", l.medianUS())
	}
	return nil
}
