// Package gat implements the paper's contribution: the Grid index for
// Activity Trajectories (GAT, Section IV) and its best-first search
// framework for ATSQ and OATSQ (Sections V and VI).
//
// The index has the paper's four components:
//
//	(i)   HICL — Hierarchical Inverted Cell List: per activity, the cells
//	      containing it at every grid level; high levels in memory, the
//	      finest levels on simulated disk.
//	(ii)  ITL — Inverted Trajectory List: per leaf cell and activity, the
//	      trajectories with a matching point inside the cell (in memory,
//	      grouped by activity: see itlArena).
//	(iii) TAS — Trajectory Activity Sketch: a per-trajectory pre-filter
//	      over activity IDs. Retired: the shared TrajStore's exact
//	      in-memory activity directory makes every decision it made.
//	(iv)  APL — Activity Posting List: per trajectory and activity, the
//	      matching point indexes (on disk, shared TrajStore).
//
// Search proceeds in λ-candidate batches (Algorithm 1): best-first cell
// expansion retrieves candidates near any query location that contain at
// least one of its activities, a lower bound for all unseen trajectories is
// maintained from the nearest unvisited cells (Algorithm 2), candidates are
// validated against the activity directory and APL, and match distances
// are computed with the shared evaluator. One departure from Algorithm 1:
// the descent stops above the leaf level wherever the query's activities
// are sparse — a popped cell with few lists of its mask below it has them
// all pulled from the ITL in that pop (see NextBatch) — which changes how
// many cells are popped, never what is answered.
package gat

import (
	"fmt"

	"activitytraj/internal/evaluate"
	"activitytraj/internal/zorder"
)

// Config tunes the GAT index. The zero value selects the paper's defaults.
type Config struct {
	// Depth is d: the leaf grid has 2^Depth × 2^Depth cells. The paper's
	// default is 8 (256×256); Figure 8 sweeps 5..8.
	Depth int
	// MemLevels is the number of HICL levels kept in main memory (levels
	// 1..MemLevels); deeper levels live on disk. The paper keeps levels
	// 1..6 in memory for d=8. Values >= Depth keep the whole HICL in
	// memory.
	MemLevels int
	// Lambda is the candidate batch size λ of Algorithm 1.
	Lambda int
	// NearCells is m: how many nearest unvisited cells per query point
	// feed the virtual-trajectory lower bound of Algorithm 2.
	NearCells int
	// PoolPages is the buffer pool capacity for the HICL disk store.
	PoolPages int
	// HICLCacheEntries caps the shared cache of decoded disk-level HICL
	// posting lists (0 selects DefaultHICLCacheEntries). The cache is
	// shared by every search over the index.
	HICLCacheEntries int
	// LooseLowerBound replaces Algorithm 2 with the "straightforward"
	// bound — the priority queue's head distance (ablation A1).
	LooseLowerBound bool
}

// Defaults mirror Section VII's experimental setup.
const (
	DefaultDepth     = 8
	DefaultMemLevels = 6
	DefaultLambda    = 32
	DefaultNearCells = 8
	// DefaultHICLCacheEntries holds every disk-level list of a depth-8,
	// multi-thousand-activity index comfortably; each entry is one decoded
	// posting list.
	DefaultHICLCacheEntries = 4096
)

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.Depth > zorder.MaxLevel {
		c.Depth = zorder.MaxLevel
	}
	if c.MemLevels <= 0 {
		c.MemLevels = DefaultMemLevels
	}
	if c.Lambda <= 0 {
		c.Lambda = DefaultLambda
	}
	if c.NearCells <= 0 {
		c.NearCells = DefaultNearCells
	}
	if c.PoolPages <= 0 {
		c.PoolPages = evaluate.DefaultPoolPages
	}
	if c.HICLCacheEntries <= 0 {
		c.HICLCacheEntries = DefaultHICLCacheEntries
	}
	return c
}

// maxParam bounds the integer parameters: PoolPages sizes the pool's frame
// tables (default 1024), and the searcher adds one to NearCells.
const maxParam = 1 << 20

// validate rejects post-default parameters beyond maxParam. It is the one
// check Build and Load share, so no index builds that its own file would
// not load.
func (c Config) validate() error {
	for _, v := range [...]int{c.Depth, c.MemLevels, c.Lambda, c.NearCells, c.PoolPages} {
		if v > maxParam {
			return fmt.Errorf("gat: parameter %d exceeds %d (%+v)", v, maxParam, c)
		}
	}
	return nil
}
