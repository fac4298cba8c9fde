package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"amoeba/internal/metrics"
	"amoeba/internal/obs"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// goldenDay is the golden scenarios' day: the diurnal curve runs its
// whole period, so thinning rejects candidates through the trough and
// accepts nearly all of them at the rush-hour peaks.
const goldenDay = 600.0

// goldenDigests pins the byte-exact outcome of every golden scenario:
// the JSONL stream (one query-complete event per QueryRecord, plus
// cold starts, decisions, spans and meter samples) and every Result
// table except the kernel's event count. They were captured from the
// arrival generator that fired one kernel event per thinning candidate
// and evaluated the trace's rate for each, so they prove the thinning
// fast path accepts the same arrivals at the same float times. A drift
// here is a behaviour change, never a refactoring detail. Violation
// windows hash as start, query count and violation count; the digests
// were recaptured with that hash on the code that still kept a P²
// estimate per window, so they prove its deletion moved nothing else.
// The Amoeba-NoM pair ran with a 25 s snapshot timer until the timer
// was deleted; it was recaptured without the timer on the code that
// still had it.
var goldenDigests = map[string]string{
	"amoeba/seed=3/shards=0":      "0fd098fe8748c81b1a4c4232dc0c9377bdfea85b7a8b217c6e6feb5dd7534a4a",
	"amoeba/seed=3/shards=2":      "220370e16115eecb7894af9a36a128bf93a153e95a4585ba8f8dc8b73fbb21e2",
	"amoeba/seed=17/shards=0":     "4af0fabc8d55a7a0f72b0a52e8b88a2d7afda88ec2e4ca32e8c467e56583ee47",
	"amoeba/seed=17/shards=2":     "a5353e7401ea0ca319dc9b8380e85984ec66d8ba9ab0eb18ab460dd0fa9fc1fe",
	"amoeba-nop/seed=3/shards=0":  "fc42b06f560d44185c65b6df7f343f71cc4c47d7a3e40873cfb0ee3593d2fb2f",
	"amoeba-nop/seed=3/shards=2":  "7fddbf131da8ff754c6d9ac0957b34ecfdda34162cdfaaf7da91491fab828f1d",
	"amoeba-nop/seed=17/shards=0": "4480782ac6b8e9356582293aed0269bb762c348cece68449db2ee669cf4d87d8",
	"amoeba-nop/seed=17/shards=2": "4b4fd5cc4459db3490e7f0f0736f7175c697e732db391eebe26989ce03132a59",
	"openwhisk/seed=3/shards=0":   "b396daf4fbe15e1aae0075e18c1b5a7e0b28ae1611262863c094028c8d78abfa",
	"openwhisk/seed=3/shards=2":   "c10a7901d7d50dce4cb3d64c2c7424654935a097fb693b3734210797cfdc5200",
	"openwhisk/seed=17/shards=0":  "5ff25fa96952f1a9193160838ecd46ec474e2da1bfbd7c64ba6159a7eaceeffc",
	"openwhisk/seed=17/shards=2":  "061bfe8be493e99e39a292722e870b66804c45c38cd6f526ee0416d4a1b69bbf",
	"nameko/seed=3/shards=0":      "a97c7e4a58f6a07b38fe178a131efd06b8b13808c66ae91c18551c5d3850c73b",
	"nameko/seed=3/shards=2":      "773f167d3f28ebfa8c182ee01f4af9aadb507b77909404c22932c8c8761dded7",
	"nameko/seed=17/shards=0":     "d05d35a69cdc21823838a46583ca0a70d579d21da9a9bf30dcb6e6e405b4f6ca",
	"nameko/seed=17/shards=2":     "d213dd025f8886a8c3d6a1c7b07eddd27858637a6e8c3e40d8fc4fe6954c7437",
	"amoeba-nom/seed=3/shards=0":  "5d6e15ea1d8339b3c3c21e62ce2da9c66a172fd1431eafc228206666384712e0",
	"amoeba-nom/seed=3/shards=2":  "71d05a767a1d0964f6b59c07bbf2ed61e623eb1ef36ad5c717e3a3f8e2c6ccd0",
	"autoscale/seed=3/shards=0":   "7438b68434e14608778be83f6c8976e2dcd8248c46d48d0c1ac457fd0c158766",
	"autoscale/seed=3/shards=2":   "3f69562626d9c59ed2b719a44587316daed075aaf5e3f3b2ba1163bba406b7b3",
}

// registryDigests pins the metrics registry a MetricsSink folds from
// golden scenarios: the SHA-256 of its Prometheus-text exposition, every
// counter, gauge, histogram bucket, sum and count. They were captured on
// the sink that found each series in string-keyed maps and the histogram
// that took every octave from math.Log2, so they prove that the interned
// lookups and the bit-arithmetic bucket index fold the same values into
// the same buckets.
var registryDigests = map[string]string{
	"amoeba/seed=3/shards=0":    "b458baeb41b7428f739ba64ef1b06ea805dfbf7340b7ee1a27290c9d4ef27026",
	"amoeba/seed=3/shards=2":    "0864978f63120f9c926e90e1eeae0e16324a846b16e7182ec5c1f4adf1d297d8",
	"openwhisk/seed=3/shards=0": "16e9665a0998f7cef0a026d39be8071380bb9f5a3fe2e75fb072ab3aca448ac7",
	"openwhisk/seed=3/shards=2": "477805dd93a9b8650957927ea0510b1180cc0f640123852d89dbe518769e30c6",
}

// TestRegistryGolden folds golden Amoeba and OpenWhisk days, on Run and
// on RunSharded with two workers, into a metrics registry and checks the
// exposition's digest.
func TestRegistryGolden(t *testing.T) {
	skipIfRace(t)
	for _, v := range []Variant{VariantAmoeba, VariantOpenWhisk} {
		c := goldenCase{v: v, seed: 3}
		for _, shards := range []int{0, 2} {
			reg := obs.NewRegistry()
			bus := obs.NewBus()
			bus.Attach(obs.NewMetricsSink(reg))
			sc := goldenScenario(c.v, c.seed, bus)
			if shards == 0 {
				Run(sc)
			} else {
				RunSharded(sc, shards)
			}
			h := sha256.New()
			if err := reg.WritePrometheus(h); err != nil {
				t.Fatal(err)
			}
			key := c.key(shards)
			if got, want := fmt.Sprintf("%x", h.Sum(nil)), registryDigests[key]; got != want {
				t.Errorf("%s: registry digest %s, want %s", key, got, want)
			}
		}
	}
}

// goldenCase is one golden scenario: a variant at a seed.
type goldenCase struct {
	v    Variant
	seed uint64
}

func (c goldenCase) key(shards int) string {
	return fmt.Sprintf("%v/seed=%d/shards=%d", c.v, c.seed, shards)
}

func goldenScenario(v Variant, seed uint64, bus *obs.Bus) Scenario {
	dd, fl := workload.DD(), workload.Float()
	return Scenario{
		Variant: v,
		Services: []ServiceSpec{
			{Profile: dd, Trace: trace.NewDiurnal(dd.PeakQPS, dd.PeakQPS*0.2, goldenDay, seed)},
			{Profile: fl, Trace: trace.NewDiurnal(fl.PeakQPS, fl.PeakQPS*0.2, goldenDay, seed+1)},
		},
		Background: BackgroundTenants(goldenDay, seed+7),
		Duration:   goldenDay,
		Seed:       seed,
		Bus:        bus,
	}
}

// digestRun runs one golden scenario on the plain kernel (shards == 0)
// or the sharded one and returns the SHA-256 of its stream and tables.
func digestRun(t *testing.T, c goldenCase, shards int) string {
	t.Helper()
	h := sha256.New()
	bus := obs.NewBus()
	w := obs.NewJSONLWriter(h)
	bus.Attach(w)
	sc := goldenScenario(c.v, c.seed, bus)
	var res *Result
	if shards == 0 {
		res = Run(sc)
	} else {
		res = RunSharded(sc, shards)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 {
		t.Fatal("golden run emitted no events")
	}
	hashResult(h, res)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashResult writes every outcome table of res into h in canonical
// order. Float fields print with %v, the shortest exact representation.
func hashResult(h hash.Hash, res *Result) {
	names := make([]string, 0, len(res.Services))
	for name := range res.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sr := res.Services[name]
		hashCollector(h, sr.Collector)
		fmt.Fprintf(h, "usage iaas=%+v sl=%+v cpu=%v blocked=%d w=%+v\n",
			sr.IaaSUsage, sr.ServerlessUsage, sr.ConsumedCPUSeconds, sr.BlockedSwitches, sr.FinalWeights)
		for _, d := range sr.Decisions {
			fmt.Fprintf(h, "decision %+v\n", d)
		}
		fmt.Fprintf(h, "timeline %+v\n", *sr.Timeline)
		for _, w := range sr.ViolationWindows {
			fmt.Fprintf(h, "window start=%v n=%d viol=%d\n", w.Start, w.Queries, w.Violations)
		}
	}
	bgNames := make([]string, 0, len(res.Background))
	for name := range res.Background {
		bgNames = append(bgNames, name)
	}
	sort.Strings(bgNames)
	for _, name := range bgNames {
		hashCollector(h, res.Background[name])
	}
	fmt.Fprintf(h, "meter=%v\n", res.MeterCPUSeconds)
}

func hashCollector(h hash.Hash, c *metrics.Collector) {
	fmt.Fprintf(h, "collector %s n=%d viol=%v breakdown=%+v iaas=%d sl=%d\n",
		c.Service, c.Count(), c.ViolationFraction(), c.MeanBreakdown(),
		c.BackendCount(metrics.BackendIaaS), c.BackendCount(metrics.BackendServerless))
	fmt.Fprintf(h, "latencies %v\n", c.Latencies().Values())
}

// TestScenarioGolden pins short Amoeba, Amoeba-NoP, OpenWhisk and
// Nameko days at two seeds, on Run and on RunSharded with two workers,
// against digests captured before the thinning fast path existed. One
// Amoeba-NoM day and one autoscale day pin the PCA-off monitor and the
// autoscaler wiring; the autoscale digests were captured before both
// kernels shared one wiring path.
func TestScenarioGolden(t *testing.T) {
	skipIfRace(t)
	var cases []goldenCase
	for _, v := range []Variant{VariantAmoeba, VariantAmoebaNoP, VariantOpenWhisk, VariantNameko} {
		for _, seed := range []uint64{3, 17} {
			cases = append(cases, goldenCase{v: v, seed: seed})
		}
	}
	cases = append(cases,
		goldenCase{v: VariantAmoebaNoM, seed: 3},
		goldenCase{v: VariantAutoscale, seed: 3})
	for _, c := range cases {
		for _, shards := range []int{0, 2} {
			key := c.key(shards)
			got := digestRun(t, c, shards)
			if want := goldenDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}
