package apps

import (
	"math"
	"time"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// Conjugate gradient (paper §6): solves the 2D five-point Laplacian system
// A·x = b on a g×g grid, rows block-distributed. Each iteration performs
// one matrix-vector product (requiring a halo exchange of boundary rows
// with the two neighbouring processors — bulk transfers) and two global
// dot products (all-reduces), the classic mix of bulk and latency-bound
// collective communication.

// CGConfig sizes the solver.
type CGConfig struct {
	// Grid is the g×g unknown grid edge; rows are distributed in
	// contiguous blocks of g/P.
	Grid int
	// Iters bounds the iteration count.
	Iters int
}

// PaperCGConfig returns a full-scale configuration comparable to §6.
func PaperCGConfig() CGConfig { return CGConfig{Grid: 512, Iters: 50} }

type cgNode struct {
	nd  *splitc.Node
	cfg CGConfig

	rows0, rows int // first local row, local row count
	x, r, d, q  []float64
	haloUp      []float64 // neighbour's boundary row above
	haloDown    []float64 // neighbour's boundary row below
	gotUp       bool
	gotDown     bool

	residual float64
}

func (c *cgNode) setup() {
	g := c.cfg.Grid
	n := c.nd.N()
	per := g / n
	c.rows0 = c.nd.Self() * per
	c.rows = per
	if c.nd.Self() == n-1 {
		c.rows = g - c.rows0
	}
	sz := c.rows * g
	c.x = make([]float64, sz)
	c.r = make([]float64, sz)
	c.d = make([]float64, sz)
	c.q = make([]float64, sz)
	c.haloUp = make([]float64, g)
	c.haloDown = make([]float64, g)
	c.nd.OnBulk(func(p *sim.Proc, src int, data []byte) {
		vals := bytesToF64s(data)
		if src == c.nd.Self()-1 {
			copy(c.haloUp, vals)
			c.gotUp = true
		} else if src == c.nd.Self()+1 {
			copy(c.haloDown, vals)
			c.gotDown = true
		}
	})
	c.nd.OnSmall(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
		return 0, nil
	})
}

// rhs is the deterministic right-hand side.
func rhs(row, col, g int) float64 {
	return math.Sin(float64(row+1)*0.37) * math.Cos(float64(col+1)*0.59)
}

// halo exchanges boundary rows of v with the neighbour processors. A
// neighbour that left the last collective first can send its row before
// this node gets here, so the flags are cleared once the rows are used,
// not on entry: clearing on entry loses that row and polls for ever.
func (c *cgNode) halo(p *sim.Proc, v []float64) {
	g := c.cfg.Grid
	self, n := c.nd.Self(), c.nd.N()
	if self > 0 {
		c.nd.Bulk(p, self-1, f64sToBytes(v[:g]))
	}
	if self < n-1 {
		c.nd.Bulk(p, self+1, f64sToBytes(v[(c.rows-1)*g:]))
	}
	for !(c.gotUp || self == 0) || !(c.gotDown || self == n-1) {
		c.nd.PollWait(p, time.Millisecond)
	}
	c.gotUp, c.gotDown = false, false
}

// matvec computes q = A·d for the five-point Laplacian.
func (c *cgNode) matvec(p *sim.Proc) {
	g := c.cfg.Grid
	c.halo(p, c.d)
	for i := 0; i < c.rows; i++ {
		for j := 0; j < g; j++ {
			v := 4 * c.d[i*g+j]
			if j > 0 {
				v -= c.d[i*g+j-1]
			}
			if j < g-1 {
				v -= c.d[i*g+j+1]
			}
			if i > 0 {
				v -= c.d[(i-1)*g+j]
			} else if c.nd.Self() > 0 {
				v -= c.haloUp[j]
			}
			if i < c.rows-1 {
				v -= c.d[(i+1)*g+j]
			} else if c.nd.Self() < c.nd.N()-1 {
				v -= c.haloDown[j]
			}
			c.q[i*g+j] = v
		}
	}
	c.nd.ComputeOps(p, c.rows*g*5, splitc.FlopCost)
}

// dot computes the global dot product of a and b.
func (c *cgNode) dot(p *sim.Proc, a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	c.nd.ComputeOps(p, len(a), splitc.FlopCost)
	return c.nd.AllReduceFloat(p, s)
}

func (c *cgNode) run(p *sim.Proc) {
	g := c.cfg.Grid
	for i := 0; i < c.rows; i++ {
		for j := 0; j < g; j++ {
			c.r[i*g+j] = rhs(c.rows0+i, j, g)
			c.d[i*g+j] = c.r[i*g+j]
		}
	}
	delta := c.dot(p, c.r, c.r)
	for it := 0; it < c.cfg.Iters && delta > 1e-18; it++ {
		c.matvec(p)
		dq := c.dot(p, c.d, c.q)
		alpha := delta / dq
		for i := range c.x {
			c.x[i] += alpha * c.d[i]
			c.r[i] -= alpha * c.q[i]
		}
		c.nd.ComputeOps(p, 4*len(c.x), splitc.FlopCost)
		deltaNew := c.dot(p, c.r, c.r)
		beta := deltaNew / delta
		for i := range c.d {
			c.d[i] = c.r[i] + beta*c.d[i]
		}
		c.nd.ComputeOps(p, 2*len(c.d), splitc.FlopCost)
		delta = deltaNew
		c.nd.Barrier(p)
	}
	c.residual = math.Sqrt(delta)
	c.nd.Barrier(p)
}

// RunCG executes the conjugate-gradient solver, returning the timing
// result and the final global residual norm.
func RunCG(nodes []*splitc.Node, cfg CGConfig) (Result, float64) {
	cs := make([]*cgNode, len(nodes))
	for i, nd := range nodes {
		cs[i] = &cgNode{nd: nd, cfg: cfg}
		cs[i].setup()
	}
	times := splitc.Run(nodes, func(p *sim.Proc, nd *splitc.Node) {
		cs[nd.Self()].run(p)
	})
	return collect(nodes, times), cs[0].residual
}
