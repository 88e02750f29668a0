package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"activitytraj/internal/dataset"
	"activitytraj/internal/queries"
	"activitytraj/internal/query"
	"activitytraj/internal/server"
	"activitytraj/internal/trajectory"
)

// The world — corpus and request pool — is the same on every run; the seed
// drives the traffic over it (arrival order, Zipf draws, ingest order,
// delete picks, check samples). A median over a few hundred requests of a
// population this heterogeneous moves with the draw itself (a 7 % range for
// whole-trajectory searches, 25 % for subtrajectory ones with only the walk
// steps redrawn), which is wider than any regression bound; see README.md.
const (
	corpusScale = 0.125
	baseShare   = 0.8 // leading share of the corpus that is the base index

	poolSeed    = 12
	numSessions = 20
	sessionLen  = 5
	walkStdKm   = 0.5
	maxSpanPts  = 12
)

type opClass uint8

const (
	classATSQ opClass = iota
	classOATSQ
	classSubtraj
)

// poolRequest is one distinct search: the wire body the client sends, the
// body of the same search as a standing query runs it (no with_matches), and
// the engine request the probes and the oracle run.
type poolRequest struct {
	class    opClass
	body     []byte
	standing []byte
	req      query.Request
}

type inputs struct {
	base   *trajectory.Dataset
	stream []trajectory.Trajectory // the corpus tail, inserted by ingest_watch
	pool   []poolRequest
	genS   float64
}

// classOf fixes each session's query mode: one in ten ordered, two in ten
// subtrajectory, the rest plain ATSQ.
func classOf(session int) opClass {
	switch session % 10 {
	case 9:
		return classOATSQ
	case 2, 6:
		return classSubtraj
	}
	return classATSQ
}

func makeInputs(scale float64) (*inputs, error) {
	start := time.Now()
	ds, err := dataset.Generate(dataset.LA(scale))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	n := int(float64(len(ds.Trajs)) * baseShare)
	in := &inputs{
		base:   &trajectory.Dataset{Name: ds.Name, Vocab: ds.Vocab, Trajs: ds.Trajs[:n]},
		stream: ds.Trajs[n:],
	}
	anchors, err := queries.Generate(in.base, queries.Config{NumQueries: numSessions, Seed: poolSeed})
	if err != nil {
		return nil, fmt.Errorf("generate session anchors: %w", err)
	}
	rng := rand.New(rand.NewSource(poolSeed))
	for s, q := range anchors {
		class := classOf(s)
		for step := 0; step < sessionLen; step++ {
			wire := server.SearchRequest{
				K:           queries.DefaultK,
				Ordered:     class == classOATSQ,
				WithMatches: len(in.pool)%8 == 3,
			}
			if class == classSubtraj {
				wire.Subtrajectory = true
				wire.MaxSpanPoints = maxSpanPts
			}
			for _, p := range q.Pts {
				acts := make([]int, len(p.Acts))
				for i, a := range p.Acts {
					acts[i] = int(a)
				}
				wire.Points = append(wire.Points, server.QueryPointJSON{X: p.Loc.X, Y: p.Loc.Y, Acts: acts})
			}
			req, err := server.ToQueryRequest(nil, wire)
			if err != nil {
				return nil, fmt.Errorf("session %d step %d: %w", s, step, err)
			}
			p := poolRequest{class: class, req: req}
			if p.body, err = json.Marshal(wire); err != nil {
				return nil, err
			}
			wire.WithMatches = false
			if p.standing, err = json.Marshal(wire); err != nil {
				return nil, err
			}
			in.pool = append(in.pool, p)
			// The follow-up keeps the activity sets and moves every
			// location by a N(0, walkStdKm) step.
			next := query.Query{Pts: make([]query.Point, len(q.Pts))}
			for i, p := range q.Pts {
				p.Loc.X += rng.NormFloat64() * walkStdKm
				p.Loc.Y += rng.NormFloat64() * walkStdKm
				next.Pts[i] = p
			}
			q = next
		}
	}
	in.genS = time.Since(start).Seconds()
	return in, nil
}

// interleave returns every pool index once: sessions in seeded random
// order, each session's own requests in step order.
func interleave(rng *rand.Rand) []int {
	slots := make([]int, 0, numSessions*sessionLen)
	for s := 0; s < numSessions; s++ {
		for i := 0; i < sessionLen; i++ {
			slots = append(slots, s)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	next := make([]int, numSessions)
	order := make([]int, len(slots))
	for i, s := range slots {
		order[i] = s*sessionLen + next[s]
		next[s]++
	}
	return order
}

// zipfDraws returns n pool indexes drawn Zipf(s) over a seeded ranking of
// the pool.
func zipfDraws(rng *rand.Rand, s float64, n int) []int {
	rank := rng.Perm(numSessions * sessionLen)
	z := rand.NewZipf(rng, s, 1, uint64(len(rank)-1))
	draws := make([]int, n)
	for i := range draws {
		draws[i] = rank[z.Uint64()]
	}
	return draws
}

func insertBody(tr trajectory.Trajectory) []byte {
	b, err := json.Marshal(server.InsertRequest{Points: server.PointsJSON(tr.Pts)})
	if err != nil {
		panic(err) // plain floats and ints always marshal
	}
	return b
}
