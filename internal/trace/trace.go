// Package trace generates the load patterns that drive the evaluation.
// The paper shapes each benchmark's load after a ride-request trace from Didi
// (§II-A, §VII-A) and notes that "the actual fluctuate pattern does not
// affect the analysis": what matters is the diurnal swing — a deep night
// trough (the paper quotes low load below 30 % of peak) and one or two
// daytime peaks. The Didi-shaped generator reproduces exactly that
// structure synthetically.
package trace

import (
	"fmt"
	"math"

	"amoeba/internal/sim"
)

// Trace maps virtual time (seconds) to an instantaneous arrival rate in
// queries per second.
type Trace interface {
	// Rate returns the arrival rate at time t. Implementations must be
	// deterministic and non-negative.
	Rate(t float64) float64
	// Peak returns an upper bound on Rate over the horizon of interest —
	// used both for provisioning and for Poisson thinning.
	Peak() float64
}

// Constant is a flat trace.
type Constant struct{ QPS float64 }

func (c Constant) Rate(float64) float64 { return c.QPS }
func (c Constant) Peak() float64        { return c.QPS }

// Step switches from Before to After at time At.
type Step struct {
	Before, After float64
	At            float64
}

func (s Step) Rate(t float64) float64 {
	if t < s.At {
		return s.Before
	}
	return s.After
}

func (s Step) Peak() float64 { return math.Max(s.Before, s.After) }

// Diurnal is the Didi-shaped daily pattern: a base sinusoid with a morning
// and an evening peak, a deep night trough, multiplicative noise, and
// optional short bursts.
type Diurnal struct {
	PeakQPS   float64 // daytime peak arrival rate
	TroughQPS float64 // night trough (paper: < 30% of peak)
	DayLength float64 // seconds per simulated day
	// MorningPeak and EveningPeak are fractions of the day where the two
	// rush-hour bumps sit (Didi's trace peaks at commute hours).
	MorningPeak, EveningPeak float64
	// NoiseAmp is the multiplicative noise amplitude (0 disables).
	NoiseAmp float64
	// noise is a fixed random phase table so the trace stays
	// deterministic for a given seed.
	noise []float64
}

// CheckDiurnal reports why NewDiurnal would reject its arguments: a peak
// that is not positive and finite, a trough outside [0, peak), or a day
// length that is not positive and finite. A NaN fails every check.
func CheckDiurnal(peakQPS, troughQPS, dayLength float64) error {
	if !(peakQPS > 0) || math.IsInf(peakQPS, 1) || !(troughQPS >= 0) || !(troughQPS < peakQPS) {
		return fmt.Errorf("trace: invalid diurnal peak=%v trough=%v", peakQPS, troughQPS)
	}
	if !(dayLength > 0) || math.IsInf(dayLength, 1) {
		return fmt.Errorf("trace: diurnal day length %v is not positive and finite", dayLength)
	}
	return nil
}

// NewDiurnal builds a Didi-shaped daily trace. dayLength is the virtual
// duration of one day; seed fixes the noise. It panics if CheckDiurnal
// rejects its arguments.
func NewDiurnal(peakQPS, troughQPS, dayLength float64, seed uint64) *Diurnal {
	if err := CheckDiurnal(peakQPS, troughQPS, dayLength); err != nil {
		panic(err.Error())
	}
	d := &Diurnal{
		PeakQPS:     peakQPS,
		TroughQPS:   troughQPS,
		DayLength:   dayLength,
		MorningPeak: 0.35, // ~8:24 on a 0..1 day
		EveningPeak: 0.75, // ~18:00
		NoiseAmp:    0.06,
	}
	rng := sim.NewRNG(seed)
	d.noise = make([]float64, 64)
	for i := range d.noise {
		d.noise[i] = rng.Uniform(0, 2*math.Pi)
	}
	return d
}

// The Diurnal curve's fixed parameters, shared by Rate and the slope
// bound in Lipschitz.
const (
	baseWeight    = 0.55 // weight of the cosine base in the shape
	bumpWeight    = 0.45 // weight of the rush-hour bumps
	morningWidth  = 0.06 // Gaussian width of the morning bump, in days
	eveningWidth  = 0.07 // Gaussian width of the evening bump, in days
	noiseTerms    = 6    // sine terms in the noise series
	noiseHarmonic = 3    // term i oscillates noiseHarmonic·i times a day
)

// Rate evaluates the diurnal curve at time t.
func (d *Diurnal) Rate(t float64) float64 {
	x := math.Mod(t/d.DayLength, 1)
	if x < 0 {
		x += 1
	}
	// Two Gaussian bumps over a cosine base that bottoms out at night.
	base := 0.5 - 0.5*math.Cos(2*math.Pi*x) // 0 at midnight, 1 at noon
	bump := func(center, width float64) float64 {
		dx := x - center
		// wrap-around distance
		if dx > 0.5 {
			dx -= 1
		}
		if dx < -0.5 {
			dx += 1
		}
		return math.Exp(-dx * dx / (2 * width * width))
	}
	shape := baseWeight*base + bumpWeight*math.Max(bump(d.MorningPeak, morningWidth), bump(d.EveningPeak, eveningWidth))

	// Deterministic multiplicative noise from a small Fourier series.
	noise := 0.0
	if d.NoiseAmp > 0 && len(d.noise) > 0 {
		for i := 1; i <= noiseTerms; i++ {
			noise += math.Sin(2*math.Pi*float64(i*noiseHarmonic)*x+d.noise[i]) / float64(i)
		}
		noise *= d.NoiseAmp / 2
	}

	rate := d.TroughQPS + (d.PeakQPS-d.TroughQPS)*shape
	rate *= 1 + noise
	if rate < 0 {
		rate = 0
	}
	return rate
}

// Peak returns an upper bound on the rate for thinning: the maximum of
// a 2000-point scan of one day, plus 2% headroom for the points between
// samples. The headroom is what makes it a bound: it exceeds the
// largest rise the Lipschitz slope allows within half a scan step,
// which TestDiurnalPeakCoversScanGap checks. The comparison value
// PeakQPS·(1+NoiseAmp) is not itself a bound, because the noise series
// reaches NoiseAmp/2·H₆ ≈ 1.225·NoiseAmp (H₆ = 1 + 1/2 + ... + 1/6);
// when the scan exceeds it, the scanned maximum is returned unpadded.
// The formula stays as it is because every arrival stream depends on
// its value.
func (d *Diurnal) Peak() float64 {
	bound := d.PeakQPS * (1 + d.NoiseAmp)
	mx := 0.0
	for i := 0; i < 2000; i++ {
		if r := d.Rate(float64(i) / 2000 * d.DayLength); r > mx {
			mx = r
		}
	}
	if mx > bound {
		return mx
	}
	return mx * 1.02 // small headroom for points between scan samples
}

// Period returns the day length: Rate depends on t only through the
// phase math.Mod(t/DayLength, 1). With Lipschitz it lets the arrival
// generator bracket Rate from a small per-run table instead of calling
// it for every thinning candidate.
func (d *Diurnal) Period() float64 { return d.DayLength }

// Lipschitz bounds the slope of Rate from the curve's own parameters:
// |Rate(a) - Rate(b)| <= Lipschitz()·|a - b| for all a and b, in QPS per
// second.
// With x the phase, Rate = max(0, A·N) where A = Trough + (Peak -
// Trough)·shape and N = 1 + noise, so |dRate/dx| <= |A'|·|N| + |A|·|N'|:
//
//   - shape = 0.55·base + 0.45·max(bump_m, bump_e) lies in [0, 1], so
//     |A| <= max(|Trough|, |Peak|); |base'| <= π, and a Gaussian bump of
//     width w has |bump'| <= 1/(w·√e), largest for the narrower 0.06;
//   - the noise series has |noise| <= NoiseAmp/2·H₆ and, since term i
//     has frequency 2π·3i and weight 1/i, |noise'| <= NoiseAmp/2·6·6π.
//
// The max with 0 and the wrap-around of the bumps and of the phase keep
// the curve continuous, so the bound holds across them. Dividing by the
// day length converts it from per-phase to per-second.
func (d *Diurnal) Lipschitz() float64 {
	shapeSlope := baseWeight*math.Pi + bumpWeight/(math.Min(morningWidth, eveningWidth)*math.Sqrt(math.E))
	aMax := math.Max(math.Abs(d.TroughQPS), math.Abs(d.PeakQPS))
	aSlope := math.Abs(d.PeakQPS-d.TroughQPS) * shapeSlope
	nMax, nSlope := 1.0, 0.0
	if d.NoiseAmp > 0 && len(d.noise) > 0 {
		harmonic, freq := 0.0, 0.0
		for i := 1; i <= noiseTerms; i++ {
			harmonic += 1 / float64(i)
			freq += 2 * math.Pi * noiseHarmonic // term i: frequency 2π·3i, weight 1/i
		}
		nMax += d.NoiseAmp / 2 * harmonic
		nSlope = d.NoiseAmp / 2 * freq
	}
	return (aSlope*nMax + aMax*nSlope) / d.DayLength
}

// Scaled wraps a trace, multiplying its rate by Factor.
type Scaled struct {
	Inner  Trace
	Factor float64
}

func (s Scaled) Rate(t float64) float64 { return s.Inner.Rate(t) * s.Factor }
func (s Scaled) Peak() float64          { return s.Inner.Peak() * s.Factor }

// Burst overlays a square burst of Extra QPS on Inner during [From, To).
type Burst struct {
	Inner    Trace
	Extra    float64
	From, To float64
}

func (b Burst) Rate(t float64) float64 {
	r := b.Inner.Rate(t)
	if t >= b.From && t < b.To {
		r += b.Extra
	}
	return r
}

func (b Burst) Peak() float64 { return b.Inner.Peak() + b.Extra }
