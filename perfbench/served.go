package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"geodabs"
	"geodabs/client"
	"geodabs/internal/cluster"
	"geodabs/internal/core"
	"geodabs/internal/index"
	"geodabs/internal/server"
)

// The served stack: geodabsd's serving stack in one process.
// server.Listen fronts a geodabs.Cluster of two WAL-backed shard nodes on
// loopback, with geodabsd's default shard count and node connection pool
// and the library's default fsync policy (group commit, an fsync before
// every acknowledgement). No gated workload drives it under load: as a
// workload of its own its figures did not hold steady on a shared machine
// (README.md). A traced local-dense run starts it on part of its corpus
// and measures its layers (probeServed).
const (
	servedNodes        = 2
	servedShards       = 1024 // geodabsd -shards default
	servedConnsPerNode = 4    // geodabsd -conns-per-node default
	// openLoopRate is the fixed arrival rate of the probe's open loop, in
	// operations per second: about a quarter of the served search
	// capacity on a 2-CPU machine, so the queue stays short.
	openLoopRate = 500
	// opTimeout is each request's deadline; a request that misses it
	// counts as failed.
	opTimeout = 5 * time.Second
)

// servedStack is one set-up of the serving stack.
type servedStack struct {
	dir   string
	nodes []*geodabs.ShardNode
	cl    *geodabs.Cluster
	srv   *server.Server
	cli   *client.Client
}

func (s *servedStack) close() {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.cl != nil {
		s.cl.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	os.RemoveAll(s.dir)
}

func servedStrategy() geodabs.ShardStrategy {
	return geodabs.ShardStrategy{PrefixBits: geodabs.DefaultConfig().PrefixBits, Shards: servedShards, Nodes: servedNodes}
}

// startServed starts the nodes, the cluster and the server, and ingests
// the corpus with Cluster.Add on GOMAXPROCS goroutines.
func startServed(co *corpus, workers int) (*servedStack, error) {
	base := filepath.Join(buildDir, "wal")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "served-")
	if err != nil {
		return nil, err
	}
	s := &servedStack{dir: dir}
	var addrs []string
	for i := 0; i < servedNodes; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0", geodabs.WithWALDir(filepath.Join(dir, fmt.Sprintf("node%d", i))))
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		addrs = append(addrs, n.Addr())
	}
	if s.cl, err = geodabs.NewCluster(geodabs.DefaultConfig(), servedStrategy(), addrs, geodabs.WithConnsPerNode(servedConnsPerNode)); err != nil {
		s.close()
		return nil, err
	}
	if s.srv, err = server.Listen("127.0.0.1:0", s.cl, server.Config{}); err != nil {
		s.close()
		return nil, err
	}
	if err := addAll(co.docs, workers, s.cl.Add); err != nil {
		s.close()
		return nil, err
	}
	if s.cli, err = client.Dial(s.srv.Addr(), client.WithPoolSize(workers), client.WithMaxRetries(0)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// addAll calls add for every trajectory on the given number of
// goroutines and returns the first error.
func addAll(ts []*geodabs.Trajectory, workers int, add func(*geodabs.Trajectory) error) error {
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ts); i += workers {
				if err := add(ts[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// servedOp is one scheduled operation of the open loop.
type servedOp struct {
	due   time.Duration // since the phase start
	query int           // query index, or -1 for an upsert
	id    geodabs.ID    // upsert target
}

// servedRun is the per-phase state shared by the load goroutines.
type servedRun struct {
	s        *servedStack
	co       *corpus
	orc      *oracle
	fps      []*geodabs.Fingerprint
	heldSets map[routeDir][]uint32
	// acked user bytes and writes, for the WAL ratios.
	userBytes atomic.Int64
	writes    atomic.Int64
}

// do runs one operation and returns its error.
func (sr *servedRun) do(ctx context.Context, op servedOp) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if op.query >= 0 {
		_, err := sr.s.cli.SearchFingerprint(ctx, sr.fps[op.query], client.WithKNN(knn))
		return err
	}
	rd := sr.orc.docs[op.id].rd
	h := sr.co.held[rd]
	err := sr.s.cli.Upsert(ctx, &geodabs.Trajectory{ID: op.id, Route: h.Route, Dir: h.Dir, Points: h.Points})
	sr.orc.upserted(op.id, h.Points, sr.heldSets[rd], err)
	if err == nil {
		sr.writes.Add(1)
		sr.userBytes.Add(int64(16 * len(h.Points)))
	}
	return err
}

// nextOp draws one operation of a mixed round: the writeEvery-th is an
// upsert of a random document, the others kNN searches of random
// held-out queries.
func nextOp(rng *rand.Rand, k, queries, docs int) servedOp {
	if k == writeEvery-1 {
		return servedOp{query: -1, id: geodabs.ID(rng.Intn(docs))}
	}
	return servedOp{query: rng.Intn(queries)}
}

// walCounters sums the nodes' WAL counters.
type walCounters struct {
	syncs uint64
	bytes int64
}

func walTotals(cl *geodabs.Cluster) (walCounters, error) {
	st, err := cl.Stats()
	if err != nil {
		return walCounters{}, err
	}
	var w walCounters
	for _, n := range st {
		w.syncs += n.WALSyncs
		w.bytes += n.WALBytes
	}
	return w, nil
}

// probeServedLayers measures the layers under the served search on a
// sample of held-out queries: the client round trip (parent) beside a
// direct Cluster.SearchQuery on the same fingerprint (child), so the
// server's self time is what remains; a repeat of that query with its
// shard plan cached gives the scatter-gather alone, and a separate
// coordinator on the same nodes times the planning step.
func probeServedLayers(r *report, sr *servedRun) error {
	ctx := context.Background()
	cfg := geodabs.DefaultConfig()
	fp, err := core.NewFingerprinter(cfg)
	if err != nil {
		return err
	}
	var addrs []string
	for _, n := range sr.s.nodes {
		addrs = append(addrs, n.Addr())
	}
	planner, err := cluster.NewCoordinator(index.GeodabExtractor{Fingerprinter: fp}, servedStrategy(), addrs)
	if err != nil {
		return err
	}
	defer planner.Close()
	sb := r.tr.buf()
	probe := sr.co.queries[:min(200, len(sr.co.queries))]
	var terms, partials, nodePruned, nodes float64
	var termSets [][]uint32
	var hitSets [][]geodabs.Result
	var prepared []*geodabs.Query
	for i, q := range probe {
		sp := sb.begin("core.FingerprintSet", int64(i), -1)
		set := fp.FingerprintSet(q.Points)
		sb.end(sp)
		terms += float64(set.Cardinality())
		sp = sb.begin("cluster.Plan", int64(i), -1)
		planner.Plan(set)
		sb.end(sp)

		f := &geodabs.Fingerprint{Set: set}
		parent := sb.begin("probe.client.SearchFingerprint", int64(i), -1)
		res, err := sr.s.cli.SearchFingerprint(ctx, f, client.WithKNN(knn))
		sb.end(parent)
		if err != nil {
			return err
		}
		pq := geodabs.QueryFromFingerprint(f)
		sp = sb.begin("geodabs.Cluster.SearchQuery", int64(i), parent)
		_, err = sr.s.cl.SearchQuery(ctx, pq, geodabs.WithKNN(knn))
		sb.end(sp)
		if err != nil {
			return err
		}
		sp = sb.begin("cluster.scatter", int64(i), -1)
		cres, err := sr.s.cl.SearchQuery(ctx, pq, geodabs.WithKNN(knn))
		sb.end(sp)
		if err != nil {
			return err
		}
		partials += float64(cres.Stats.WirePartials)
		nodePruned += float64(cres.Stats.NodePruned)
		nodes += float64(cres.Stats.NodesTouched)
		termSets = append(termSets, set.ToSlice())
		hitSets = append(hitSets, res.Hits)
		prepared = append(prepared, pq)
	}
	np := float64(len(probe))
	r.setLayer("core.terms", terms/np)
	r.setLayer("cluster.wire_partials", partials/np)
	r.setLayer("cluster.node_pruned", nodePruned/np)
	r.setLayer("cluster.nodes_touched", nodes/np)
	i := 0
	r.setLayer("cluster.allocs_per_search", mallocsPer(len(prepared), func() {
		sr.s.cl.SearchQuery(ctx, prepared[i%len(prepared)], geodabs.WithKNN(knn))
		i++
	}))
	for j := 0; j < 100; j++ {
		id := geodabs.ID((j * 7919) % len(sr.orc.docs))
		rd := sr.orc.docs[id].rd
		h := sr.co.held[rd]
		sp := sb.begin("geodabs.Cluster.Upsert", int64(j), -1)
		err := sr.s.cl.Upsert(ctx, &geodabs.Trajectory{ID: id, Route: h.Route, Dir: h.Dir, Points: h.Points})
		sb.end(sp)
		sr.orc.upserted(id, h.Points, sr.heldSets[rd], err)
		if err != nil {
			return err
		}
	}
	r.probeWire(termSets, hitSets)
	r.probeKernels(kernelPairs(probe, sr.co.held))
	sum := r.tr.summarize()
	r.setLayer("core.extract_us", sum["core.FingerprintSet"].medianUS())
	r.setLayer("cluster.plan_us", sum["cluster.Plan"].medianUS())
	r.setLayer("cluster.scatter_us", sum["cluster.scatter"].medianUS())
	r.setLayer("cluster.upsert_us", sum["geodabs.Cluster.Upsert"].medianUS())
	r.setLayer("server.self_us", sum["probe.client.SearchFingerprint"].selfMedianUS())
	return nil
}

// openLat holds the open loop's samples: search and upsert latencies from
// when each was due, how late each was issued, and the search latencies
// of traced and untraced rounds.
type openLat struct{ search, write, late, traced, plain samples }

// openLoop runs a seeded Poisson arrival schedule at openLoopRate for
// dur, in whole rounds of writeEvery operations, on the given number of
// goroutines; every latency is timed from when the operation was due.
func (sr *servedRun) openLoop(r *report, ph *phase, seed int64, dur time.Duration, workers int) openLat {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	n := int(openLoopRate*dur.Seconds()) / writeEvery * writeEvery
	ops := make([]servedOp, n)
	var due float64
	for i := range ops {
		due += rng.ExpFloat64() / openLoopRate
		ops[i] = nextOp(rng, i%writeEvery, len(sr.co.queries), len(sr.orc.docs))
		ops[i].due = time.Duration(due * float64(time.Second))
	}
	lats := make([]openLat, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(l *openLat) {
			defer wg.Done()
			sb := r.tr.buf()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				op := ops[i]
				if d := op.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				l.late = append(l.late, time.Since(start)-op.due)
				traced := (i/writeEvery)%2 == 0
				var sp int32 = -1
				if traced {
					name := "client.SearchFingerprint"
					if op.query < 0 {
						name = "client.Upsert"
					}
					sp = sb.begin(name, int64(i), -1)
				}
				err := sr.do(ctx, op)
				sb.end(sp)
				d := time.Since(start) - op.due
				ph.record(err)
				if op.query < 0 {
					l.write = append(l.write, d)
					continue
				}
				l.search = append(l.search, d)
				if r.cfg.trace {
					if traced {
						l.traced = append(l.traced, d)
					} else {
						l.plain = append(l.plain, d)
					}
				}
			}
		}(&lats[w])
	}
	wg.Wait()
	r.printf("open loop: %d operations at %d/s in %.3f s", n, openLoopRate, since(start))
	var all openLat
	for _, l := range lats {
		all.search = append(all.search, l.search...)
		all.write = append(all.write, l.write...)
		all.late = append(all.late, l.late...)
		all.traced = append(all.traced, l.traced...)
		all.plain = append(all.plain, l.plain...)
	}
	return all
}

// probeServedDocs is the size of the served stack a traced local-dense
// run measures.
const probeServedDocs = 2000

// probeServed measures the served layers in a traced run: the served
// stack, with its default fsync policy, on the first
// probeServedDocs documents of the corpus; a one-second open loop gives
// the generator's lateness and the WAL's cost per upsert, then
// probeServedLayers splits a served search into its layers.
func probeServed(r *report, sub *corpus) error {
	orc, err := newOracle(sub, false)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	s, err := startServed(sub, workers)
	if err != nil {
		return err
	}
	defer s.close()
	sr := &servedRun{s: s, co: sub, orc: orc, heldSets: fingerprintHeld(orc, sub)}
	for _, q := range sub.queries {
		sr.fps = append(sr.fps, orc.fp.Fingerprint(q.Points))
	}
	walBefore, err := walTotals(s.cl)
	if err != nil {
		return err
	}
	l := sr.openLoop(r, r.newPhase("served-probe"), r.cfg.seed, time.Second, workers)
	r.latencyLine("served probe search (from due)", l.search)
	r.setLayer("loadgen.late_ms", l.late.sorted().quantileMS(0.99))
	walAfter, err := walTotals(s.cl)
	if err != nil {
		return err
	}
	sr.recordWAL(r, walBefore, walAfter)
	return probeServedLayers(r, sr)
}

// recordWAL reports the nodes' fsyncs and log bytes per acknowledged
// upsert, and the server's shed count.
func (sr *servedRun) recordWAL(r *report, before, after walCounters) {
	if w := sr.writes.Load(); w > 0 {
		r.setLayer("wal.fsyncs_per_write", float64(after.syncs-before.syncs)/float64(w))
		r.setLayer("wal.bytes_per_user_byte", float64(after.bytes-before.bytes)/float64(sr.userBytes.Load()))
	}
	shed := sr.s.srv.Metrics().Shed()
	r.printf("server: %d requests shed; WAL %d fsyncs and %d bytes for %d acknowledged upserts",
		shed, after.syncs-before.syncs, after.bytes-before.bytes, sr.writes.Load())
	r.setLayer("server.shed", float64(shed))
}
