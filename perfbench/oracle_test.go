package main

import (
	"math"
	"math/rand"
	"testing"

	"geodabs"
	"geodabs/internal/bitmap"
)

func randomWalk(rng *rand.Rand, n int) []geodabs.Point {
	p := geodabs.Point{Lat: 51.5 + rng.Float64()*0.01, Lon: -0.12 + rng.Float64()*0.01}
	out := make([]geodabs.Point, n)
	for i := range out {
		p.Lat += (rng.Float64() - 0.5) * 1e-4
		p.Lon += (rng.Float64() - 0.5) * 1e-4
		out[i] = p
	}
	return out
}

// The reference dynamic programs must agree with the program's metrics;
// otherwise the rerank check would compare against the wrong thing.
func TestReferenceMetricsMatchProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		a, b := randomWalk(rng, 1+rng.Intn(60)), randomWalk(rng, 1+rng.Intn(60))
		for _, m := range []struct {
			name      string
			ref, prog func(p, q []geodabs.Point) float64
		}{{"DTW", refDTW, geodabs.DTW}, {"DFD", refDFD, geodabs.DFD}} {
			want, got := m.ref(a, b), m.prog(a, b)
			if math.Abs(want-got) > rerankRelTol*math.Max(1, want) {
				t.Fatalf("%s(%d, %d points): reference %.12g, program %.12g", m.name, len(a), len(b), want, got)
			}
		}
	}
}

func TestJaccardMatchesProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		a, b := bitmap.New(), bitmap.New()
		for j := 0; j < 40; j++ {
			a.Add(uint32(rng.Intn(100)))
			b.Add(uint32(rng.Intn(100)))
		}
		got, _ := jaccard(a.ToSlice(), b.ToSlice())
		want := geodabs.JaccardDistance(&geodabs.Fingerprint{Set: a}, &geodabs.Fingerprint{Set: b})
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("jaccard %.15g, program %.15g", got, want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), the
// method the spread of a set of runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 1, 8, 2, 4}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSameRankingRejectsOrderAndScore(t *testing.T) {
	want := []hit{{1, 0.1}, {2, 0.2}}
	if err := sameRanking([]geodabs.Result{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.2}}, want, 1e-12); err != nil {
		t.Fatal(err)
	}
	if sameRanking([]geodabs.Result{{ID: 2, Distance: 0.1}, {ID: 1, Distance: 0.2}}, want, 1e-12) == nil {
		t.Fatal("swapped IDs accepted")
	}
	if sameRanking([]geodabs.Result{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.25}}, want, 1e-12) == nil {
		t.Fatal("wrong score accepted")
	}
	if sameRanking([]geodabs.Result{{ID: 1, Distance: 0.1}}, want, 1e-12) == nil {
		t.Fatal("short ranking accepted")
	}
}
