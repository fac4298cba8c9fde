package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"amoeba/internal/core"
	"amoeba/internal/obs"
	"amoeba/internal/trace"
	"amoeba/internal/workload"
)

// mergedStream is a synthetic two-namespace merge in canonical
// (timestamp, namespace) order, the shape core.RunSharded produces:
// namespace 1 holds odd span IDs (stride 2), namespace 2 holds even
// ones, and the namespace-2 decision causally references the
// namespace-1 meter sample — a legal cross-namespace edge.
func mergedStream(t *testing.T) string {
	return jsonl(t,
		&obs.MeterSample{At: 1, Trace: 1, Span: 1, Pressure: [3]float64{0.1, 0.2, 0.3}},
		&obs.DecisionEvent{At: 2, Service: "ns2-svc", Verdict: "stay-iaas", Trace: 2, Span: 2, MeterSpan: 1},
		&obs.DecisionEvent{At: 2, Service: "ns1-svc", Verdict: "stay-iaas", Trace: 3, Span: 3, MeterSpan: 1},
		&obs.QueryComplete{At: 5, Service: "ns1-svc", Backend: "iaas",
			Arrived: 3, Latency: 2, Trace: 5, Span: 5},
		&obs.QueryComplete{At: 5, Service: "ns2-svc", Backend: "serverless",
			Arrived: 3, Latency: 2, Trace: 4, Span: 4},
	)
}

func TestValidateMergedMultiShardStream(t *testing.T) {
	_, total, err := validateStream(strings.NewReader(mergedStream(t)), nil)
	if err != nil {
		t.Fatalf("merged stream rejected: %v", err)
	}
	if total != 5 {
		t.Fatalf("validated %d events, want 5", total)
	}
}

// TestValidateRejectsCollidingNamespaces pins the failure mode the
// validator exists to catch after a merge: two shards handing out the
// same span ID. The error must be identifiable as ErrIDCollision so
// drivers can distinguish a mis-seeded merge from other trace breaks.
func TestValidateRejectsCollidingNamespaces(t *testing.T) {
	stream := jsonl(t,
		&obs.QueryComplete{At: 3, Service: "a", Arrived: 1, Latency: 2, Trace: 1, Span: 7},
		&obs.QueryComplete{At: 4, Service: "b", Arrived: 2, Latency: 2, Trace: 2, Span: 7},
	)
	_, _, err := validateStream(strings.NewReader(stream), nil)
	if err == nil {
		t.Fatal("colliding span IDs accepted")
	}
	if !errors.Is(err, ErrIDCollision) {
		t.Fatalf("collision error not ErrIDCollision: %v", err)
	}
}

// TestValidateShardedRunEndToEnd validates real merged streams from the
// sharded kernel on the paper grid: the five benchmarks, each on its own
// diurnal day, beside the three background tenants (9 cells with the
// monitor daemon). On this 240 s day OpenWhisk ends with queries still
// executing and Amoeba ends mid-switch; the validator accepts both
// horizon cases (the command doc's checks 7 and 8).
func TestValidateShardedRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a paper-grid simulation")
	}
	const day, seed = 240, 17
	for _, v := range []core.Variant{core.VariantOpenWhisk, core.VariantAmoeba} {
		var svcs []core.ServiceSpec
		for i, prof := range workload.All() {
			tr := trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day, seed+uint64(i))
			svcs = append(svcs, core.ServiceSpec{Profile: prof, Trace: tr})
		}
		var buf bytes.Buffer
		bus := obs.NewBus()
		bus.Attach(obs.NewJSONLWriter(&buf))
		core.RunSharded(core.Scenario{
			Variant:    v,
			Services:   svcs,
			Background: core.BackgroundTenants(day, seed+7),
			Duration:   day,
			Seed:       seed,
			Bus:        bus,
		}, 4)

		perKind, total, err := validateStream(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("%v: sharded run stream rejected: %v", v, err)
		}
		if total == 0 || perKind[obs.KindQueryComplete] == 0 {
			t.Fatalf("%v: sharded run completed no queries (%d events)", v, total)
		}
	}
}
