package obs_test

import (
	"reflect"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// recordedFloats returns every float field of a recorded stream in
// emission order: the events of a 300 s Amoeba day on dd with the
// background tenants, as BenchmarkEventEmit/jsonl replays them, each
// event's floats in declaration order, as the encoder writes them.
func recordedFloats(tb testing.TB) []float64 {
	const day, seed = 300, 0xA0EBA
	prof := workload.DD()
	rec := obs.NewBuffer()
	sc := core.Scenario{
		Variant: core.VariantAmoeba,
		Services: []core.ServiceSpec{{
			Profile: prof,
			Trace:   trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day, seed),
		}},
		Background: core.BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
		Bus:        obs.NewBus(),
	}
	sc.Bus.Attach(rec)
	core.Run(sc)
	var out []float64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Float64:
			out = append(out, v.Float())
		}
	}
	for _, ev := range rec.Events() {
		walk(reflect.ValueOf(ev).Elem())
	}
	if len(out) == 0 {
		tb.Fatal("the recorded stream has no float fields")
	}
	return out
}

// BenchmarkAppendFloat prices one float field of a recorded stream, in
// emission order: the shortest-digits formatter alone, the encoder's
// path (its memo, then the formatter on a miss), and strconv under the
// same rules, which the encoder called before. None allocates; CI's
// benchmark smoke fails on a line that reports an allocation.
func BenchmarkAppendFloat(b *testing.B) {
	floats := recordedFloats(b)
	var enc obs.FloatEncoder
	for _, f := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{
		{"shortest", obs.AppendFloat},
		{"memo", enc.Append},
		{"strconv", obs.AppendFloatStrconv},
	} {
		b.Run(f.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				buf = f.append(buf[:0], floats[j])
				if j++; j == len(floats) {
					j = 0
				}
			}
		})
	}
}
