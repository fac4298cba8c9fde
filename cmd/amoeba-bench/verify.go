package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

// verify checks, at one seed and with every horizon scaled by scale,
// the properties the benchmark's numbers rely on:
//
//   - determinism: every workload run twice gives identical Results;
//   - shard invariance: sharded-day gives identical Results on 1 and 2
//     shards;
//   - telemetry neutrality: amoeba-observed's runs give the same Results
//     as amoeba-day's Amoeba runs, which have the same seeds but no bus;
//   - stream determinism: amoeba-observed's JSONL streams hash alike.
//
// It prints one line per check and returns an error naming every check
// that failed.
func verify(seed uint64, scale float64, out io.Writer) error {
	var failed []error
	check := func(what string, ok bool) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed = append(failed, errors.New("verify: "+what))
		}
		fmt.Fprintf(out, "%s %s\n", verdict, what)
	}
	fmt.Fprintf(out, "seed %d, horizon scale %g, %s\n", seed, scale, hostSummary())
	results := map[string][]uint64{}
	for _, w := range workloads {
		scs := w.scenarios(seed, scale)
		a, streamA, err := w.digests(scs)
		if err != nil {
			return err
		}
		b, streamB, err := w.digests(scs)
		if err != nil {
			return err
		}
		check(w.name+": the same seed twice gives identical results", slices.Equal(a, b))
		if w.observed {
			check(w.name+": the JSONL stream is identical across runs", slices.Equal(streamA, streamB))
		}
		results[w.name] = a
	}

	sharded, err := lookupWorkload("sharded-day")
	if err != nil {
		return err
	}
	sharded.shards = 1
	one, _, err := sharded.digests(sharded.scenarios(seed, scale))
	if err != nil {
		return err
	}
	check("sharded-day: results are identical on 1 and 2 shards", slices.Equal(one, results["sharded-day"]))

	observed, day := results["amoeba-observed"], results["amoeba-day"]
	check("amoeba-observed: telemetry leaves results unchanged",
		len(observed) <= len(day) && slices.Equal(observed, day[:len(observed)]))
	return errors.Join(failed...)
}

// digests runs each scenario once and returns its Result digest and,
// for observed workloads, the hash of its JSONL stream.
func (w benchWorkload) digests(scs []scenario) (results, streams []uint64, err error) {
	for _, s := range scs {
		h := fnv.New64a()
		r := w.execute(s, h, nil)
		if r.err != nil {
			return nil, nil, fmt.Errorf("verify: %s/%s: %w", w.name, s.name, r.err)
		}
		results = append(results, digest(r.res))
		streams = append(streams, h.Sum64())
	}
	return results, streams, nil
}
