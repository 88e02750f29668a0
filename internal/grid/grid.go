// Package grid implements the hierarchical quad grid underlying the GAT
// index. The space is a square region divided into 2^d × 2^d cells at the
// finest level d (the "d-Grid" of the paper); coarser levels l < d are formed
// by repeatedly merging 2×2 blocks, yielding the hierarchy the Hierarchical
// Inverted Cell List is built over. Cells are identified by (level, Z-order
// code) pairs.
package grid

import (
	"fmt"
	"math"

	"activitytraj/internal/geo"
	"activitytraj/internal/zorder"
)

// Cell identifies one cell of the hierarchy: Level 1 is the coarsest grid
// (2×2 cells), Level == Grid.Depth() is the leaf grid. Z is the Z-order code
// of the cell within its level, in [0, 4^Level).
type Cell struct {
	Level uint8
	Z     uint32
}

// String implements fmt.Stringer for debugging output.
func (c Cell) String() string { return fmt.Sprintf("L%d/%d", c.Level, c.Z) }

// Parent returns the enclosing cell one level up. It panics at level 1.
func (c Cell) Parent() Cell {
	if c.Level <= 1 {
		panic("grid: level-1 cell has no parent")
	}
	return Cell{Level: c.Level - 1, Z: zorder.Parent(c.Z)}
}

// Children returns the four cells that partition c one level down.
func (c Cell) Children() [4]Cell {
	zs := zorder.Children(c.Z)
	l := c.Level + 1
	return [4]Cell{{l, zs[0]}, {l, zs[1]}, {l, zs[2]}, {l, zs[3]}}
}

// Grid is a square hierarchical partitioning of a region of the plane.
// The zero value is not usable; construct with New.
type Grid struct {
	origin geo.Point // lower-left corner of the region
	side   float64   // side length of the square region, km
	depth  int       // number of levels; leaf level has 2^depth per axis
}

// New returns a grid covering the square with lower-left corner origin and
// the given side length, with depth levels (1 <= depth <= zorder.MaxLevel).
func New(origin geo.Point, side float64, depth int) (*Grid, error) {
	if depth < 1 || depth > zorder.MaxLevel {
		return nil, fmt.Errorf("grid: depth %d out of range [1,%d]", depth, zorder.MaxLevel)
	}
	if side <= 0 || math.IsNaN(side) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("grid: invalid side length %v", side)
	}
	return &Grid{origin: origin, side: side, depth: depth}, nil
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(origin geo.Point, side float64, depth int) *Grid {
	g, err := New(origin, side, depth)
	if err != nil {
		panic(err)
	}
	return g
}

// Depth returns the number of levels (the paper's d).
func (g *Grid) Depth() int { return g.depth }

// Side returns the side length of the covered region in kilometres.
func (g *Grid) Side() float64 { return g.side }

// Region returns the covered square.
func (g *Grid) Region() geo.Rect {
	return geo.Rect{MinX: g.origin.X, MinY: g.origin.Y, MaxX: g.origin.X + g.side, MaxY: g.origin.Y + g.side}
}

// CellSide returns the side length of cells at the given level.
func (g *Grid) CellSide(level int) float64 {
	return g.side / float64(uint32(1)<<uint(level))
}

// CellsPerAxis returns the number of cells per axis at the given level.
func (g *Grid) CellsPerAxis(level int) uint32 { return 1 << uint(level) }

// CellAt returns the cell containing p at the given level. Points outside
// the region are clamped to the boundary cells, so every point maps to a
// valid cell; callers that need strict containment should test
// Region().ContainsPoint first.
func (g *Grid) CellAt(level int, p geo.Point) Cell {
	n := g.CellsPerAxis(level)
	cs := g.CellSide(level)
	ix := clampIndex((p.X-g.origin.X)/cs, n)
	iy := clampIndex((p.Y-g.origin.Y)/cs, n)
	return Cell{Level: uint8(level), Z: zorder.Encode(ix, iy)}
}

// LeafAt returns the leaf-level cell containing p.
func (g *Grid) LeafAt(p geo.Point) Cell { return g.CellAt(g.depth, p) }

// CellRect returns the rectangle covered by c.
func (g *Grid) CellRect(c Cell) geo.Rect {
	cs := g.CellSide(int(c.Level))
	ix, iy := zorder.Decode(c.Z)
	minX := g.origin.X + float64(ix)*cs
	minY := g.origin.Y + float64(iy)*cs
	return geo.Rect{MinX: minX, MinY: minY, MaxX: minX + cs, MaxY: minY + cs}
}

// MinDist returns the minimum distance from p to cell c — the mdist priority
// used by the GAT best-first search.
func (g *Grid) MinDist(p geo.Point, c Cell) float64 {
	return g.CellRect(c).MinDist(p)
}

func clampIndex(f float64, n uint32) uint32 {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	i := uint32(f)
	if i >= n {
		return n - 1
	}
	return i
}

// FitRegion returns a square region (origin point and side) that covers r
// with a small margin. It is a convenience for building a Grid over a
// dataset's bounding rectangle.
func FitRegion(r geo.Rect, marginFrac float64) (geo.Point, float64) {
	side := math.Max(r.Width(), r.Height())
	if side <= 0 {
		side = 1
	}
	side *= 1 + marginFrac
	c := r.Center()
	return geo.Point{X: c.X - side/2, Y: c.Y - side/2}, side
}
