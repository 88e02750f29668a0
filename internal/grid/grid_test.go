package grid

import (
	"math"
	"testing"
	"testing/quick"

	"activitytraj/internal/geo"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.Point{}, 10, 0); err == nil {
		t.Fatal("depth 0 must be rejected")
	}
	if _, err := New(geo.Point{}, 10, 17); err == nil {
		t.Fatal("depth 17 must be rejected")
	}
	if _, err := New(geo.Point{}, -1, 5); err == nil {
		t.Fatal("negative side must be rejected")
	}
	if _, err := New(geo.Point{}, math.NaN(), 5); err == nil {
		t.Fatal("NaN side must be rejected")
	}
}

// TestCellContainsPoint: the cell computed for a point must cover it.
func TestCellContainsPoint(t *testing.T) {
	g := MustNew(geo.Point{X: -5, Y: 3}, 64, 8)
	f := func(fx, fy float64, lvl8 uint8) bool {
		level := int(lvl8%8) + 1
		p := geo.Point{
			X: -5 + frac(fx)*64,
			Y: 3 + frac(fy)*64,
		}
		c := g.CellAt(level, p)
		r := g.CellRect(c)
		return r.ContainsPoint(p) && g.MinDist(p, c) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestChildrenPartitionParent: a cell's four children tile it exactly.
func TestChildrenPartitionParent(t *testing.T) {
	g := MustNew(geo.Point{}, 32, 6)
	c := g.CellAt(3, geo.Point{X: 17, Y: 9})
	parent := g.CellRect(c)
	var area float64
	for _, ch := range c.Children() {
		r := g.CellRect(ch)
		if !parent.ContainsRect(r) {
			t.Fatalf("child %v (%+v) escapes parent %v (%+v)", ch, r, c, parent)
		}
		area += r.Area()
	}
	if math.Abs(area-parent.Area()) > 1e-9 {
		t.Fatalf("children area %v != parent area %v", area, parent.Area())
	}
	for _, ch := range c.Children() {
		if ch.Parent() != c {
			t.Fatalf("child %v parent = %v, want %v", ch, ch.Parent(), c)
		}
	}
}

func TestClampOutside(t *testing.T) {
	g := MustNew(geo.Point{}, 10, 4)
	// Points outside the region map to boundary cells.
	c := g.LeafAt(geo.Point{X: -100, Y: 10000})
	r := g.CellRect(c)
	if r.MinX != 0 {
		t.Fatalf("x should clamp to first column, rect %+v", r)
	}
	if r.MaxY != 10 {
		t.Fatalf("y should clamp to last row, rect %+v", r)
	}
}

func TestCellSide(t *testing.T) {
	g := MustNew(geo.Point{}, 256, 8)
	if s := g.CellSide(8); s != 1 {
		t.Fatalf("leaf cell side = %v, want 1", s)
	}
	if s := g.CellSide(1); s != 128 {
		t.Fatalf("level-1 cell side = %v, want 128", s)
	}
	if n := g.CellsPerAxis(8); n != 256 {
		t.Fatalf("cells per axis = %d, want 256", n)
	}
}

func TestMinDistToNeighbourCell(t *testing.T) {
	g := MustNew(geo.Point{}, 16, 4) // leaf cells 1×1
	p := geo.Point{X: 0.5, Y: 0.5}
	c := g.LeafAt(geo.Point{X: 2.5, Y: 0.5}) // two cells to the right
	if d := g.MinDist(p, c); math.Abs(d-1.5) > 1e-12 {
		t.Fatalf("MinDist = %v, want 1.5", d)
	}
}

func TestFitRegion(t *testing.T) {
	r := geo.NewRect(2, 3, 12, 8)
	origin, side := FitRegion(r, 0.1)
	reg := geo.Rect{MinX: origin.X, MinY: origin.Y, MaxX: origin.X + side, MaxY: origin.Y + side}
	if !reg.ContainsRect(r) {
		t.Fatalf("fitted region %+v does not contain %+v", reg, r)
	}
	if side < 10 || side > 12 {
		t.Fatalf("side = %v, want ≈ 11 (max extent + 10%%)", side)
	}
	// Degenerate rect still yields a usable region.
	_, side = FitRegion(geo.RectFromPoint(geo.Point{X: 1, Y: 1}), 0.05)
	if side <= 0 {
		t.Fatalf("degenerate side = %v", side)
	}
}

func TestTopCells(t *testing.T) {
	g := MustNew(geo.Point{}, 8, 3)
	var area float64
	for _, c := range (Cell{}).Children() { // the level-1 cells
		area += g.CellRect(c).Area()
	}
	if math.Abs(area-64) > 1e-9 {
		t.Fatalf("top cells must tile the region, area %v", area)
	}
}

func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	f := math.Abs(v) - math.Floor(math.Abs(v))
	if f >= 1 {
		return 0
	}
	return f
}
