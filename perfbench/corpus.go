package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"geodabs"
)

// corpusSpec sizes one workload's generated inputs.
type corpusSpec struct {
	// city is the road network; RadiusMeters 0 is the default ~300 km²
	// city.
	city geodabs.CityConfig
	// routes is split into genChunks generator calls run in parallel;
	// each chunk has its own seed, so the corpus does not depend on how
	// many CPUs generate it.
	routes int
	// perDirection trajectories per route and direction are indexed; one
	// more per direction is generated and held back for upserts.
	perDirection   int
	minRouteMeters float64
}

const genChunks = 4

// routeDir names one direction of travel along one route.
type routeDir struct {
	route uint32
	dir   geodabs.Direction
}

// corpus is a workload's generated inputs: the indexed documents (IDs
// 0..len(docs)-1), one held-back trajectory per route and direction that
// upserts write under existing IDs of that route and direction, and the
// held-out queries.
type corpus struct {
	docs    []*geodabs.Trajectory
	held    map[routeDir]*geodabs.Trajectory
	queries []*geodabs.Trajectory
	points  int
}

// citySeed fixes the road network: the city is the map every run drives
// on, like the paper's London extract, while the trajectories on it vary
// with the run's seed.
const citySeed = 1

// generate builds the corpus for a seed. Every generator call is seeded
// from it; nothing depends on the clock.
func generate(spec corpusSpec, seed int64) (*corpus, error) {
	spec.city.Seed = citySeed
	city, err := geodabs.GenerateCity(spec.city)
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	outs := make([]*geodabs.DatasetOutput, genChunks)
	errs := make([]error, genChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for c := 0; c < genChunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := geodabs.DefaultDatasetConfig()
			cfg.Routes = spec.routes / genChunks
			cfg.TrajectoriesPerDirection = spec.perDirection + 1
			cfg.QueriesPerRoute = 1
			if spec.minRouteMeters > 0 {
				cfg.MinRouteMeters = spec.minRouteMeters
			}
			cfg.Seed = seed*genChunks + int64(c)
			outs[c], errs[c] = geodabs.GenerateDataset(city, cfg)
		}(c)
	}
	wg.Wait()
	co := &corpus{held: make(map[routeDir]*geodabs.Trajectory)}
	for c, out := range outs {
		if errs[c] != nil {
			return nil, fmt.Errorf("dataset chunk %d: %w", c, errs[c])
		}
		routeBase := uint32(c * (spec.routes / genChunks))
		// Within a chunk, the generator emits each route direction's
		// trajectories consecutively; the last of each run is held back.
		ts := out.Dataset.Trajectories
		for i, t := range ts {
			t.Route += routeBase
			last := i+1 == len(ts) || ts[i+1].Route+routeBase != t.Route || ts[i+1].Dir != t.Dir
			if last {
				co.held[routeDir{t.Route, t.Dir}] = t
				continue
			}
			t.ID = geodabs.ID(len(co.docs))
			co.docs = append(co.docs, t)
			co.points += len(t.Points)
		}
		for _, q := range out.Queries {
			q.Route += routeBase
			co.queries = append(co.queries, q)
		}
	}
	for i, q := range co.queries {
		q.ID = geodabs.ID(len(co.docs) + i)
	}
	return co, nil
}

// dataset wraps the indexed documents for AddAll.
func (c *corpus) dataset() *geodabs.Dataset {
	return &geodabs.Dataset{Trajectories: c.docs}
}

// prepare generates a workload's corpus, fingerprints it and the
// held-back trajectories for the oracle (keeping the points when the
// oracle reranks), and prints the make-up and how long this took. None
// of it is part of setup_s.
func prepare(r *report, spec corpusSpec, seed int64, keepPoints bool) (*corpus, *oracle, map[routeDir][]uint32, error) {
	start := time.Now()
	co, err := generate(spec, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	gen := since(start)
	r.printf("corpus: %d trajectories, %d points (%.0f per trajectory), %d held back, %d queries",
		len(co.docs), co.points, float64(co.points)/float64(len(co.docs)), len(co.held), len(co.queries))
	start = time.Now()
	orc, err := newOracle(co, keepPoints)
	if err != nil {
		return nil, nil, nil, err
	}
	heldSets := fingerprintHeld(orc, co)
	r.printf("inputs: generated in %.2f s, fingerprinted for the oracle in %.2f s", gen, since(start))
	return co, orc, heldSets, nil
}
