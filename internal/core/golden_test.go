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
	"amoeba/internal/units"
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
// here is a behaviour change, never a refactoring detail.
var goldenDigests = map[string]string{
	"amoeba/seed=3/shards=0":      "614ea33d4832fdfb449855ad9aa3f4ca6eb7013729fe162ab1079fcdcd2b4fdf",
	"amoeba/seed=3/shards=2":      "488c82beee97408908d2f310e30ce98b00c711d0c99cf0c1b0c0736f7493b39c",
	"amoeba/seed=17/shards=0":     "436f19ee42837a1ed7958f84d88143b2e3c3c9c67c11e1d79456eb930a333d54",
	"amoeba/seed=17/shards=2":     "95ca9311bd5c98c4778987d320798a73dbe40915aa546ddec0ed243c92d26a5d",
	"amoeba-nop/seed=3/shards=0":  "a4d68cbee9ba72911d565e09b11d41e9532ec26beff3e63375eae323ee5ff0a5",
	"amoeba-nop/seed=3/shards=2":  "44a35ba1a255630eda57559ba99e99961e5ecf686ed7f0cf4a252b781bebdc95",
	"amoeba-nop/seed=17/shards=0": "7790f1c51bd1b1756130e5f3e5cdd241dc8649d548b5eb2688da35e9b96404e2",
	"amoeba-nop/seed=17/shards=2": "6880551285c0c2bcbbb1e19e8323e6aaca5d6f1a4a26e2b1284585c857beb8be",
	"openwhisk/seed=3/shards=0":   "954b415b07ec327ef97685d897c1831721cebff8785826ba934e862f35d2cc42",
	"openwhisk/seed=3/shards=2":   "ed5182a07d7fb2d3e9e6071bde51ee76492a5b6dfcbb6635f958439b3a6de9bd",
	"openwhisk/seed=17/shards=0":  "4051777fecf6d62f0571fd8cde7ee93cf738664ce2d110a2f20c3c1fb695da47",
	"openwhisk/seed=17/shards=2":  "64a1548dfac7c4c235036bcc4b20b1848f45d3246ec0c492ff4a5f32be5e1b2f",
	"nameko/seed=3/shards=0":      "42c9b512da92c538779802dbc0a67fc604f315ed81169fe3ea03e3346b6f42fc",
	"nameko/seed=3/shards=2":      "60746cebb9a8e7b1f4535983c3c6c8fdee37f3a760495467549cddd92db44d68",
	"nameko/seed=17/shards=0":     "d7f8bd0270798cf82c0c5c8ef352f9a10ad8b78b380ec7699f1ebcced83e47db",
	"nameko/seed=17/shards=2":     "4feef581ac6387a381a89d9b994dc6f53eee62841f6d1ac91a8560478185212d",

	"amoeba-nom/seed=3/snapshot=25/shards=0": "7066b61e9087c6c62f2b90451ffcf4a7286c298f5629b0c4005b34ed28301f06",
	"amoeba-nom/seed=3/snapshot=25/shards=2": "4aa2ea1cedc0e042187d694c19969de288bba81213d5377046ba926b8481d0d4",
	"autoscale/seed=3/shards=0":              "2fb36df7cf2743424df2f32b38486888a3ab0147235b143734e3d3b3bee073bd",
	"autoscale/seed=3/shards=2":              "d760a8e59d35c6a0c4c68bbb10d1bc4417af995a1e15f66c5f0683766ce8e0eb",
}

// goldenCase is one golden scenario: a variant at a seed, with the
// Fig. 12 snapshot timer on when snapshot is positive.
type goldenCase struct {
	v        Variant
	seed     uint64
	snapshot units.Seconds
}

func (c goldenCase) key(shards int) string {
	k := fmt.Sprintf("%v/seed=%d/", c.v, c.seed)
	if c.snapshot > 0 {
		k += fmt.Sprintf("snapshot=%v/", c.snapshot)
	}
	return k + fmt.Sprintf("shards=%d", shards)
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
	sc.SnapshotPeriod = c.snapshot
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
		fmt.Fprintf(h, "timeline %+v\nwindows %+v\n", *sr.Timeline, sr.ViolationWindows)
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
// Amoeba-NoM day with the snapshot timer and one autoscale day pin the
// PCA-off monitor, the snapshot timer and the autoscaler wiring; their
// digests were captured before both kernels shared one wiring path.
func TestScenarioGolden(t *testing.T) {
	skipIfRace(t)
	var cases []goldenCase
	for _, v := range []Variant{VariantAmoeba, VariantAmoebaNoP, VariantOpenWhisk, VariantNameko} {
		for _, seed := range []uint64{3, 17} {
			cases = append(cases, goldenCase{v: v, seed: seed})
		}
	}
	cases = append(cases,
		goldenCase{v: VariantAmoebaNoM, seed: 3, snapshot: 25},
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
