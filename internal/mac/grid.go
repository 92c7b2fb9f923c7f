package mac

import (
	"math"
	"math/bits"

	"whitefi/internal/spectrum"
)

// Spatial interference culling.
//
// The medium's two per-transmission fan-outs — raising carrier sense at
// launch and resolving delivery at finish — cost O(nodes) each if they
// walk every attached node, which makes a dense world O(nodes ×
// transmissions). Under a finite-range propagation model most of those visits are provably
// irrelevant twice over: nodes beyond the model's MaxRangeFor radius
// cannot receive the transmission above the relevant floor (the
// carrier-sense threshold at launch, the decode floor at finish), and
// nodes whose tuned span shares no UHF channel with the transmission
// cannot sense or decode it at any distance.
//
// nodeGrid culls on both axes at once: a uniform-cell spatial index
// over the attached nodes, one map entry per occupied cell holding a
// bucket per spanned UHF channel, so a query returns only the nodes
// that are both inside the interference neighborhood and tuned to an
// overlapping channel, for one map lookup per occupied cell. It is
// built lazily on the first query with a finite range and then
// maintained incrementally: attach, detach and retune touch one node's buckets,
// and a position update re-buckets only the moved node, so a dynamics
// epoch that moves k nodes costs O(k) index work. A query visits only
// the cells of its rectangle that lie inside the bounding box of every
// cell the grid has ever put a node in, so its cost is bounded by the
// occupied extent however far a model's range bound reaches. It marks
// the candidates in a bitset over each node's index in the id-sorted
// node slice, then reads the set bits in ascending order: that
// deduplicates the candidates (a node sits in one bucket per spanned
// channel) and yields them in ascending id without a comparison sort.
// Fan-outs thus visit in the same ascending-id order as a walk over
// every attached node — the medium stays deterministic and, because
// MaxRangeFor is an upper bound and span bucketing is exact,
// event-identical to an unculled medium. The tests pin that equivalence
// against a naive reference medium that walks every node and scans the
// whole history.
//
// Models without a finite bound (FlatPropagation or a nil Prop) report
// an infinite range; the grid is then never built and the fan-outs walk
// every attached node.

// cellXY addresses one cell of the index.
type cellXY struct{ x, y int32 }

// key packs the cell coordinates into the index's map key.
func (c cellXY) key() uint64 { return uint64(uint32(c.x))<<32 | uint64(uint32(c.y)) }

// gridCell is one occupied cell: a bucket per UHF channel. Buckets hold
// the live *airNode (attach refreshes the pointer on a same-id
// re-attach) in arbitrary order — queries order them by index. A node
// appears in the bucket of every in-band UHF channel of its span. Span
// channels outside the band are not bucketed: a channel centered in the
// band spans at least one in-band channel of any other in-band-centered
// channel it overlaps, so no candidate set loses a node.
type gridCell [spectrum.NumUHF][]*airNode

// nodeGrid buckets attached nodes by position cell and tuned span. Each
// attached node records the cell it is bucketed in (airNode.cell).
type nodeGrid struct {
	cell  float64 // cell edge length in meters
	cells map[uint64]*gridCell
	// lo and hi are the corners of a grow-only bounding box of every
	// cell a node has been bucketed in. Cells outside it have always
	// been empty, so queries clamp their rectangle to it. Empty
	// (lo > hi) until the first insert.
	lo, hi cellXY
}

// cellOf maps a position to its cell coordinates.
func (g *nodeGrid) cellOf(p Position) cellXY {
	return cellXY{x: int32(math.Floor(p.X / g.cell)), y: int32(math.Floor(p.Y / g.cell))}
}

// insert adds node n at position p under every channel of its span.
func (g *nodeGrid) insert(n *airNode, p Position) {
	n.cell = g.cellOf(p)
	g.insertBuckets(n)
}

// insertBuckets adds node n to the buckets of its cell under its
// current span.
func (g *nodeGrid) insertBuckets(n *airNode) {
	c := n.cell
	g.lo.x, g.lo.y = min(g.lo.x, c.x), min(g.lo.y, c.y)
	g.hi.x, g.hi.y = max(g.hi.x, c.x), max(g.hi.y, c.y)
	b := g.cells[c.key()]
	if b == nil {
		b = new(gridCell)
		g.cells[c.key()] = b
	}
	for _, u := range n.span {
		if u.Valid() {
			b[u] = append(b[u], n)
		}
	}
}

// removeBuckets drops node n from its cell's buckets under the given
// span — retune passes the span the node was bucketed under before the
// channel changed.
func (g *nodeGrid) removeBuckets(n *airNode, span []spectrum.UHF) {
	b := g.cells[n.cell.key()]
	for _, u := range span {
		if !u.Valid() {
			continue
		}
		s := b[u]
		for i, v := range s {
			if v == n {
				s[i] = s[len(s)-1]
				s[len(s)-1] = nil
				b[u] = s[:len(s)-1]
				break
			}
		}
	}
}

// remove drops node n from the index entirely.
func (g *nodeGrid) remove(n *airNode) { g.removeBuckets(n, n.span) }

// replace swaps the bucket entries of old (same id, possibly different
// span) for the re-attached node n.
func (g *nodeGrid) replace(old, n *airNode) {
	g.removeBuckets(old, old.span)
	n.cell = old.cell
	g.insertBuckets(n)
}

// move re-buckets node n to position p; a move within one cell is free.
func (g *nodeGrid) move(n *airNode, p Position) {
	c := g.cellOf(p)
	if c == n.cell {
		return
	}
	g.removeBuckets(n, n.span)
	n.cell = c
	g.insertBuckets(n)
}

// retune re-buckets node n from oldSpan to its current span in place.
func (g *nodeGrid) retune(n *airNode, oldSpan []spectrum.UHF) {
	g.removeBuckets(n, oldSpan)
	g.insertBuckets(n)
}

// minGridCellM and maxGridCellM clamp the auto-sized cell edge: below
// the minimum a query rectangle spans too many cells, above the maximum
// a cell degenerates into the whole world.
const (
	minGridCellM = 50.0
	maxGridCellM = 5000.0
)

// autoGridCell derives the index cell size from the propagation model:
// the carrier-sense range of a default-power transmitter, the radius of
// the most common query. One cell per radius keeps a query at about
// 3×3 cells.
func (a *Air) autoGridCell() float64 {
	r := a.Prop.MaxRangeFor(DefaultTxPowerDBm, DefaultCSThresholdDBm)
	if math.IsInf(r, 1) || r != r {
		return 0
	}
	return math.Min(math.Max(r, minGridCellM), maxGridCellM)
}

// ensureGrid builds the index over the currently attached nodes if it
// does not exist yet. Returns nil when no finite cell size is available.
func (a *Air) ensureGrid() *nodeGrid {
	if a.grid != nil {
		return a.grid
	}
	cell := a.GridCellM
	if cell <= 0 {
		cell = a.autoGridCell()
	}
	if cell <= 0 {
		return nil
	}
	g := &nodeGrid{
		cell:  cell,
		cells: make(map[uint64]*gridCell),
		lo:    cellXY{x: math.MaxInt32, y: math.MaxInt32},
		hi:    cellXY{x: math.MinInt32, y: math.MinInt32},
	}
	for _, n := range a.nodes {
		g.insert(n, a.slotPos[n.slot])
	}
	a.grid = g
	return g
}

// cullRange returns the radius within which a transmission at powerDBm
// can still be received at or above floorDBm, or +Inf when the medium
// cannot cull (no spatial model).
func (a *Air) cullRange(powerDBm, floorDBm float64) float64 {
	if a.Prop == nil {
		return math.Inf(1)
	}
	return a.Prop.MaxRangeFor(powerDBm, floorDBm)
}

// eachNodeOverlappingWithin visits, in ascending id order, every
// attached node whose tuned span overlaps ch and whose current position
// lies in a cell overlapping the disk of radius r around p — a superset
// of the overlapping nodes within r. An infinite radius (or an
// unavailable grid) falls back to visiting every node; visitors keep
// their own channel checks either way.
func (a *Air) eachNodeOverlappingWithin(p Position, r float64, ch spectrum.Channel, f func(*airNode)) {
	g := a.gridFor(r)
	if g == nil {
		a.eachNode(f)
		return
	}
	lo, hi := ch.Bounds()
	a.visitBuckets(g, p, r, lo, hi, f)
}

// eachNodeWithin is eachNodeOverlappingWithin without the channel cull:
// candidates on any UHF channel. NodesNear and span-agnostic queries
// use it.
func (a *Air) eachNodeWithin(p Position, r float64, f func(*airNode)) {
	g := a.gridFor(r)
	if g == nil {
		a.eachNode(f)
		return
	}
	a.visitBuckets(g, p, r, 0, spectrum.NumUHF-1, f)
}

// gridFor returns the grid to use for a query of radius r, or nil when
// the query must fall back to the full node walk.
func (a *Air) gridFor(r float64) *nodeGrid {
	if math.IsInf(r, 1) {
		return nil
	}
	return a.ensureGrid()
}

// visitBuckets collects the nodes bucketed under UHF channels [lo, hi]
// in the cells overlapping the disk of radius r around p, each once and
// in ascending id order, and visits them. The cell rectangle is clamped
// to the grid's occupied bounding box, and the channel range to the
// band; neither changes a candidate. Each occupied cell costs one map
// lookup, whatever the channel range.
func (a *Air) visitBuckets(g *nodeGrid, p Position, r float64, lo, hi spectrum.UHF, f func(*airNode)) {
	lo, hi = max(lo, 0), min(hi, spectrum.NumUHF-1)
	x0 := max(int32(math.Floor((p.X-r)/g.cell)), g.lo.x)
	x1 := min(int32(math.Floor((p.X+r)/g.cell)), g.hi.x)
	y0 := max(int32(math.Floor((p.Y-r)/g.cell)), g.lo.y)
	y1 := min(int32(math.Floor((p.Y+r)/g.cell)), g.hi.y)
	if words := (len(a.nodes) + 63) / 64; len(a.scratchMark) < words {
		a.scratchMark = make([]uint64, words)
	}
	mark := a.scratchMark
	wlo, whi := len(mark), -1
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			b := g.cells[cellXY{x, y}.key()]
			if b == nil {
				continue
			}
			for u := lo; u <= hi; u++ {
				for _, n := range b[u] {
					w := n.idx >> 6
					mark[w] |= 1 << (n.idx & 63)
					wlo, whi = min(wlo, w), max(whi, w)
				}
			}
		}
	}
	// Visit order must match a walk over every attached node: ascending
	// id, each node once. nodes is sorted by id, so ascending index is
	// ascending id, and a node marked under several channels is one
	// bit. The candidates are collected (clearing the bitset) before any
	// visit, into a scratch buffer detached for the duration of the
	// visits: a visitor that synchronously transmits (e.g. an OnReceive
	// hook replying with SendImmediate) re-enters this query, and a
	// nested query must start from a clear bitset and allocate its own
	// buffer rather than truncate the one being iterated.
	near := a.scratchNear[:0]
	for w := wlo; w <= whi; w++ {
		for m := mark[w]; m != 0; m &= m - 1 {
			near = append(near, a.nodes[w<<6|bits.TrailingZeros64(m)])
		}
		mark[w] = 0
	}
	a.scratchNear = nil
	for _, n := range near {
		f(n)
	}
	if cap(near) > cap(a.scratchNear) {
		a.scratchNear = near[:0]
	}
}

// NodesNear returns the ids of attached nodes whose grid cells overlap
// the disk of radius r around p, in ascending order — a superset of the
// nodes within r, the exact candidate set a culled fan-out from p would
// visit before channel filtering. It is a diagnostics hook for tests
// and scenario tooling; with no finite-range model it returns every
// attached node.
func (a *Air) NodesNear(p Position, r float64) []int {
	var out []int
	a.eachNodeWithin(p, r, func(n *airNode) { out = append(out, n.id) })
	return out
}
