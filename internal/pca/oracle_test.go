package pca

// The generic principal-component regression: any number of features,
// on linalg's dense matrices. Window.Refit must return what
// FitRegression(linalg.FromRows(rows), y, 0) returns, bit for bit
// (TestRefitMatchesOracle, FuzzRefit); the tests in pca_test.go pin the
// regression itself.

import (
	"fmt"
	"math"

	"amoeba/internal/linalg"
)

// Model holds a fitted PCA basis.
type Model struct {
	Means      []float64      // per-feature means removed before projection
	Components *linalg.Matrix // columns are principal directions, descending variance
	Variances  []float64      // eigenvalues (variance along each component)
}

// Fit computes the PCA basis of the samples (one row per observation,
// one column per feature). It panics with fewer than two samples.
func Fit(samples *linalg.Matrix) *Model {
	if samples.Rows < 2 {
		panic("pca: Fit needs at least 2 samples")
	}
	cov := linalg.Covariance(samples)
	vals, vecs := linalg.EigenSym(cov)
	// Covariance is PSD; clamp tiny negative eigenvalues from roundoff.
	for i, v := range vals {
		if v < 0 {
			vals[i] = 0
		}
	}
	return &Model{
		Means:      samples.ColumnMeans(),
		Components: vecs,
		Variances:  vals,
	}
}

// Dims returns the number of input features.
func (m *Model) Dims() int { return len(m.Means) }

// ExplainedVariance returns the fraction of total variance captured by the
// first k components. It panics if k is out of range.
func (m *Model) ExplainedVariance(k int) float64 {
	if k < 0 || k > len(m.Variances) {
		panic(fmt.Sprintf("pca: k=%d out of range", k))
	}
	total, head := 0.0, 0.0
	for i, v := range m.Variances {
		total += v
		if i < k {
			head += v
		}
	}
	if total == 0 {
		return 1 // degenerate: no variance at all, any basis explains it
	}
	return head / total
}

// ComponentsFor returns the smallest k whose components explain at least
// the given fraction of variance.
func (m *Model) ComponentsFor(fraction float64) int {
	for k := 1; k <= len(m.Variances); k++ {
		if m.ExplainedVariance(k) >= fraction {
			return k
		}
	}
	return len(m.Variances)
}

// Transform projects one observation onto the first k components.
// It panics if the observation or k does not match the fitted basis.
func (m *Model) Transform(x []float64, k int) []float64 {
	if len(x) != m.Dims() {
		panic("pca: Transform dimension mismatch")
	}
	if k <= 0 || k > m.Dims() {
		panic(fmt.Sprintf("pca: k=%d out of range", k))
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		s := 0.0
		for j := 0; j < m.Dims(); j++ {
			s += (x[j] - m.Means[j]) * m.Components.At(j, c)
		}
		out[c] = s
	}
	return out
}

// Regression is a fitted principal-component regression: y ≈ x · Weights
// + Intercept in the *original* feature space, with the coefficients
// estimated in the truncated component space for stability.
type Regression struct {
	Weights   []float64
	Intercept float64
	K         int     // components used
	Explained float64 // variance fraction they capture
}

// FitRegression fits y on the rows of samples using the first k principal
// components (k <= 0 selects the smallest k explaining >= 95% variance).
// It panics if the sample and target counts disagree.
func FitRegression(samples *linalg.Matrix, y []float64, k int) *Regression {
	if samples.Rows != len(y) {
		panic("pca: FitRegression shape mismatch")
	}
	model := Fit(samples)
	if k <= 0 {
		k = model.ComponentsFor(0.95)
	}
	if k > model.Dims() {
		k = model.Dims()
	}

	// Project all samples.
	z := linalg.NewMatrix(samples.Rows, k)
	for i := 0; i < samples.Rows; i++ {
		row := make([]float64, samples.Cols)
		for j := 0; j < samples.Cols; j++ {
			row[j] = samples.At(i, j)
		}
		p := model.Transform(row, k)
		for c := 0; c < k; c++ {
			z.Set(i, c, p[c])
		}
	}

	// Centre y, regress on the (already centred) components.
	ymean := 0.0
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(len(y))
	yc := make([]float64, len(y))
	for i, v := range y {
		yc[i] = v - ymean
	}
	beta := linalg.SolveLeastSquares(z, yc)

	// Map the component coefficients back to original features:
	// w = V_k beta.
	weights := make([]float64, model.Dims())
	for j := 0; j < model.Dims(); j++ {
		s := 0.0
		for c := 0; c < k; c++ {
			s += model.Components.At(j, c) * beta[c]
		}
		weights[j] = s
	}
	// Intercept so that prediction is exact at the feature means.
	intercept := ymean
	for j, w := range weights {
		intercept -= w * model.Means[j]
	}
	return &Regression{
		Weights:   weights,
		Intercept: intercept,
		K:         k,
		Explained: model.ExplainedVariance(k),
	}
}

// Predict evaluates the regression at x. It panics on a dimension
// mismatch with the fitted weights.
func (r *Regression) Predict(x []float64) float64 {
	if len(x) != len(r.Weights) {
		panic("pca: Predict dimension mismatch")
	}
	s := r.Intercept
	for j, w := range r.Weights {
		s += w * x[j]
	}
	return s
}

// RMSE returns the root-mean-square error of the regression over the given
// samples. It panics if the sample and target counts disagree.
func (r *Regression) RMSE(samples *linalg.Matrix, y []float64) float64 {
	if samples.Rows != len(y) {
		panic("pca: RMSE shape mismatch")
	}
	s := 0.0
	row := make([]float64, samples.Cols)
	for i := 0; i < samples.Rows; i++ {
		for j := 0; j < samples.Cols; j++ {
			row[j] = samples.At(i, j)
		}
		d := r.Predict(row) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(samples.Rows))
}
