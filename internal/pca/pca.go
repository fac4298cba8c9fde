// Package pca implements the principal-component regression the
// multi-resource contention monitor uses to calibrate the weights w_i of
// Eq. 6 (§VI-A).
//
// The paper's motivation: the per-resource latency inflations L_CPU, L_IO,
// L_net observed on a shared serverless platform are strongly correlated
// (co-tenants that hammer the disk also burn CPU), so fitting the combined
// slowdown directly on the raw features is ill-conditioned. PCA merges the
// correlated features into a few uncorrelated components; regressing the
// observed slowdown on those components and mapping the coefficients back
// yields stable weights.
//
// The monitor refits at every heartbeat, so the regression works in
// place: a Window holds its samples in a fixed ring, and Refit computes
// on fixed-size arrays, allocating nothing.
package pca

import (
	"fmt"
	"math"
)

// Dims is the number of features: one degradation per resource (CPU,
// IO, network).
const Dims = 3

// Window is a fixed-capacity ring of regression samples: a feature row
// and its target. Once the window is full, each Push evicts the oldest
// sample.
type Window struct {
	x    [][Dims]float64
	y    []float64
	head int // slot of the oldest sample
	n    int
}

// NewWindow returns an empty window that holds up to capacity samples.
// It panics if capacity is below one.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic(fmt.Sprintf("pca: window capacity %d below one", capacity))
	}
	return &Window{x: make([][Dims]float64, capacity), y: make([]float64, capacity)}
}

// Push adds a sample, evicting the oldest once the window is full.
//
//amoeba:noalloc
func (w *Window) Push(x [Dims]float64, y float64) {
	i := w.slot(w.n)
	if w.n == len(w.x) {
		w.head = w.slot(1)
	} else {
		w.n++
	}
	w.x[i], w.y[i] = x, y
}

// Len returns the number of samples held.
func (w *Window) Len() int { return w.n }

// Row returns the feature row of the i-th oldest sample.
func (w *Window) Row(i int) [Dims]float64 { return w.x[w.slot(i)] }

// slot maps the i-th oldest sample to its index in the ring.
func (w *Window) slot(i int) int {
	i += w.head
	if i >= len(w.x) {
		i -= len(w.x)
	}
	return i
}

// Refit fits y on the window's feature rows, oldest first, by
// principal-component regression: the rows' covariance is diagonalised
// by cyclic Jacobi rotations, the fewest leading components that explain
// at least 95% of the variance are kept, y is regressed on the rows'
// projections onto them by normal equations with a small ridge term, and
// the coefficients are mapped back to the features. It returns the
// feature weights and the intercept, which makes the fit exact at the
// feature means.
//
// Every float operation is the generic regression's on a matrix of the
// same rows, in the same order (DESIGN.md §23), so the weights are bit
// for bit the same.
//
// It panics if the window holds fewer than two samples, or if rounding
// leaves the ridged normal matrix not positive definite.
//
//amoeba:noalloc
func (w *Window) Refit() (weights [Dims]float64, intercept float64) {
	n := w.n
	if n < 2 {
		//amoeba:allowalloc(cold panic path: message boxing fires only when a caller refits too few samples)
		panic("pca: Refit needs at least 2 samples")
	}
	rows := float64(n)

	// Column and target means, summed oldest first.
	var means [Dims]float64
	ymean := 0.0
	for r := 0; r < n; r++ {
		i := w.slot(r)
		for j := range means {
			means[j] += w.x[i][j]
		}
		ymean += w.y[i]
	}
	for j := range means {
		means[j] /= rows
	}
	ymean /= rows

	// Sample covariance of the centred rows: each of the six sums runs
	// over the rows oldest first.
	var cov [Dims][Dims]float64
	for r := 0; r < n; r++ {
		x := &w.x[w.slot(r)]
		var c [Dims]float64
		for j := range c {
			c[j] = x[j] - means[j]
		}
		for i := 0; i < Dims; i++ {
			for j := i; j < Dims; j++ {
				cov[i][j] += c[i] * c[j]
			}
		}
	}
	for i := 0; i < Dims; i++ {
		for j := i; j < Dims; j++ {
			cov[i][j] /= float64(n - 1)
			cov[j][i] = cov[i][j]
		}
	}

	variances, comps := eigenSym(cov)
	for i, v := range variances {
		if v < 0 { // covariance is PSD: clamp roundoff
			variances[i] = 0
		}
	}
	k := componentsFor95(variances)

	// Normal equations of the centred targets on the projections, each
	// sum over the rows oldest first. A zero projection adds nothing to
	// its row of the normal matrix: the generic product skips it, and
	// skipping it here keeps a 0·Inf from adding a NaN the generic fit
	// never sees.
	var ata [Dims][Dims]float64
	var atb [Dims]float64
	for r := 0; r < n; r++ {
		i := w.slot(r)
		x := &w.x[i]
		var z [Dims]float64
		for c := 0; c < k; c++ {
			s := 0.0
			for j := 0; j < Dims; j++ {
				s += (x[j] - means[j]) * comps[j][c]
			}
			z[c] = s
		}
		yc := w.y[i] - ymean
		for a := 0; a < k; a++ {
			if za := z[a]; za != 0 {
				for b := 0; b < k; b++ {
					ata[a][b] += za * z[b]
				}
			}
			atb[a] += z[a] * yc
		}
	}
	ridge := 0.0
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if v := math.Abs(ata[a][b]); v > ridge {
				ridge = v
			}
		}
	}
	ridge = 1e-9 * (1 + ridge)
	for a := 0; a < k; a++ {
		ata[a][a] += ridge
	}
	beta := solveSPD(&ata, &atb, k)

	// w = V_k beta, and the intercept that makes the fit exact at the
	// means.
	for j := 0; j < Dims; j++ {
		s := 0.0
		for c := 0; c < k; c++ {
			s += comps[j][c] * beta[c]
		}
		weights[j] = s
	}
	intercept = ymean
	for j, wj := range weights {
		intercept -= wj * means[j]
	}
	return weights, intercept
}

// eigenSym returns the eigenvalues of the symmetric matrix a in
// descending order, and the eigenvectors as the matching columns of
// vecs, by cyclic Jacobi rotations. Ties keep their diagonal order.
func eigenSym(a [Dims][Dims]float64) (vals [Dims]float64, vecs [Dims][Dims]float64) {
	var v [Dims][Dims]float64
	for i := range v {
		v[i][i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < Dims; i++ {
			for j := i + 1; j < Dims; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-24*(1+maxAbs(&a)) {
			break
		}
		for p := 0; p < Dims-1; p++ {
			for q := p + 1; q < Dims; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a[p][p], a[q][q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < Dims; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = c*akp - s*akq
					a[k][q] = s*akp + c*akq
				}
				for k := 0; k < Dims; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = c*apk - s*aqk
					a[q][k] = s*apk + c*aqk
				}
				for k := 0; k < Dims; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = c*vkp - s*vkq
					v[k][q] = s*vkp + c*vkq
				}
			}
		}
	}
	// Insertion sort by descending eigenvalue: what sort.Slice does on
	// so few elements, so equal (and NaN) eigenvalues keep their order.
	var cols [Dims]int
	for i := range vals {
		vals[i], cols[i] = a[i][i], i
	}
	for i := 1; i < Dims; i++ {
		for j := i; j > 0 && vals[j] > vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	for r := 0; r < Dims; r++ {
		for c, col := range cols {
			vecs[r][c] = v[r][col]
		}
	}
	return vals, vecs
}

func maxAbs(a *[Dims][Dims]float64) float64 {
	mx := 0.0
	for i := range a {
		for _, v := range a[i] {
			if v := math.Abs(v); v > mx {
				mx = v
			}
		}
	}
	return mx
}

// componentsFor95 returns the fewest leading components whose variance
// is at least 95% of the total, and one when there is no variance at
// all: any basis explains it.
func componentsFor95(variances [Dims]float64) int {
	for k := 1; k <= Dims; k++ {
		total, head := 0.0, 0.0
		for i, v := range variances {
			total += v
			if i < k {
				head += v
			}
		}
		if total == 0 || head/total >= 0.95 {
			return k
		}
	}
	return Dims
}

// solveSPD solves the leading k×k system a x = b by Cholesky
// decomposition. It panics if that block of a is not positive definite.
func solveSPD(a *[Dims][Dims]float64, b *[Dims]float64, k int) (x [Dims]float64) {
	var l [Dims][Dims]float64
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			s := a[i][j]
			for m := 0; m < j; m++ {
				s -= l[i][m] * l[j][m]
			}
			if i == j {
				if s <= 0 {
					panic("pca: Refit on a non-positive-definite normal matrix")
				}
				l[i][i] = math.Sqrt(s)
			} else {
				l[i][j] = s / l[j][j]
			}
		}
	}
	var y [Dims]float64
	for i := 0; i < k; i++ {
		s := b[i]
		for m := 0; m < i; m++ {
			s -= l[i][m] * y[m]
		}
		y[i] = s / l[i][i]
	}
	for i := k - 1; i >= 0; i-- {
		s := y[i]
		for m := i + 1; m < k; m++ {
			s -= l[m][i] * x[m]
		}
		x[i] = s / l[i][i]
	}
	return x
}
