package service

import (
	"encoding/json"
	"errors"
	"testing"

	"gesmc"
	"gesmc/wire"
)

// compileErrors are the sampler-construction failures that depend on
// the built target rather than on the request's fields, so validation
// cannot screen them; the service answers each as a 400 at compile
// time.
var compileErrors = []error{
	gesmc.ErrGraphTooSmall,
	gesmc.ErrUnsupportedAlgorithm,
	gesmc.ErrExactUnsupported,
	gesmc.ErrInvalidConstraint,
	gesmc.ErrUnsupportedConstraint,
	gesmc.ErrConstraintViolated,
}

// FuzzFromWire: decoding and validating a request never panics, every
// rejection wraps ErrBadRequest, and an accepted request compiles
// through the service's own target builder and options into a sampler
// with a burn-in and thinning of at least one superstep — or fails
// with one of compileErrors.
func FuzzFromWire(f *testing.F) {
	for _, s := range []string{
		`{"degrees":[2,2,2,2],"samples":3,"seed":7}`,
		`{"degrees":[2,2,2,2],"swaps_per_edge":1e300}`,
		`{"degrees":[3,3,3,3,3,3,3,3],"uniformity":"exact"}`,
		`{"out_degrees":[1,1,0],"in_degrees":[0,1,1],"algorithm":"SeqES","burn_in":2,"thinning":1}`,
		`{"bipartite_left":[2,1],"bipartite_right":[1,1,1],"workers":2}`,
		`{"edges":[[0,1],[1,2],[2,3],[3,0]],"connected":true,"forbidden_edges":[[0,2]]}`,
		`{"edges":[[0,1],[2,3]],"directed":true,"nodes":6,"resume_from":1,"samples":2}`,
		`{"degrees":[1,1],"algorithm":"Curveball","timeout_ms":5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr wire.SampleRequest
		if json.Unmarshal(body, &wr) != nil {
			return
		}
		r, err := FromWire(&wr)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: rejection %v does not wrap ErrBadRequest", body, err)
			}
			return
		}
		target, err := r.buildTarget()
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: target error %v does not wrap ErrBadRequest", body, err)
			}
			return
		}
		// Keep each run small: the scheduler caps a served request's
		// workers at the service budget, and some engines allocate
		// per node, so a sparse target with a huge declared node count
		// would cost memory without reaching new code.
		r.Workers = min(r.Workers, 2)
		if targetNodes(target) > 1<<12 {
			return
		}
		s, err := gesmc.NewSampler(target, r.samplerOptions()...)
		if err != nil {
			for _, want := range compileErrors {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("%s: accepted request fails to compile: %v", body, err)
		}
		defer s.Close()
		if s.BurnIn() < 1 || s.Thinning() < 1 {
			t.Fatalf("%s: burn-in %d, thinning %d; want both >= 1", body, s.BurnIn(), s.Thinning())
		}
	})
}

func targetNodes(t gesmc.Target) int {
	switch g := t.(type) {
	case *gesmc.Graph:
		return g.N()
	case *gesmc.DiGraph:
		return g.N()
	}
	return 0
}
