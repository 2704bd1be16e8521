package main

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/serve"
)

// The traced backend must expose exactly the optional gateway
// interfaces serve.EngineBackend does: an extra or a missing one would
// change which routes the gateway serves while tracing.
func TestTracedBackendInterfaces(t *testing.T) {
	optional := []reflect.Type{
		reflect.TypeOf((*serve.FilteredBackend)(nil)).Elem(),
		reflect.TypeOf((*serve.HybridBackend)(nil)).Elem(),
		reflect.TypeOf((*serve.Mutator)(nil)).Elem(),
		reflect.TypeOf((*serve.TaggedMutator)(nil)).Elem(),
		reflect.TypeOf((*serve.TextMutator)(nil)).Elem(),
		reflect.TypeOf((*serve.VarzProvider)(nil)).Elem(),
		reflect.TypeOf((*serve.WriteHealth)(nil)).Elem(),
		reflect.TypeOf((*serve.TopologyNotifier)(nil)).Elem(),
	}
	plain := reflect.TypeOf(&serve.EngineBackend{})
	traced := reflect.TypeOf(newTracedBackend(&serve.EngineBackend{}))
	for _, it := range optional {
		if got, want := traced.Implements(it), plain.Implements(it); got != want {
			t.Errorf("%s: traced backend implements it = %v, EngineBackend = %v", it, got, want)
		}
	}
}

// Traced and untraced gateways over the same engine return identical
// result IDs on every read-only workload, and on filtered reads.
func TestTracedAnswersMatchUntraced(t *testing.T) {
	for _, w := range []string{"knn", "hybrid"} {
		t.Run(w, func(t *testing.T) {
			in, err := genInputs(3, 2000, 120, w == "hybrid")
			if err != nil {
				t.Fatal(err)
			}
			s, _, err := buildStack(w, in, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			g1, err := startGateway(newTracedBackend(s.be))
			if err != nil {
				t.Fatal(err)
			}
			defer g1.stop()
			ops := readOps(w, in, 0, 60)
			if w == "knn" {
				for i := 0; i < in.ds.Len(); i++ {
					s.eng.SetTags(in.ds.ID(i), tagsFor(in.ds.ID(i)))
				}
				ops = append(ops, readOps("filtered", in, 60, 120)...)
			}
			answers := func(url string) []answer {
				c := newClient(url)
				defer c.close()
				res, _ := c.closedLoop(ops, 0)
				out := make([]answer, len(res))
				for i := range res {
					if !res[i].ok() {
						t.Fatalf("op %d: status %d, %v", i, res[i].status, res[i].err)
					}
					if out[i], err = parseRead(&ops[i], &res[i]); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}
			plain, traced := answers(s.gw.url), answers(g1.url)
			for i := range ops {
				if !slices.Equal(plain[i].ids, traced[i].ids) {
					t.Fatalf("op %d: untraced %v, traced %v", i, plain[i].ids, traced[i].ids)
				}
			}
		})
	}
}
