package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"

	"nektarg/internal/audit"
	"nektarg/internal/core"
	"nektarg/internal/geometry"
	"nektarg/internal/nektar1d"
)

// checkPeriod is the per-period correctness gate: every field finite, every
// patch's divergence inside the workload's bound, every DPD region's particle
// count inside its band, and no critical audit verdict.
func checkPeriod(w *workload, in *instance) error {
	for _, p := range in.meta.Patches {
		s := p.Solver
		for _, f := range [][]float64{s.U, s.V, s.W, s.Pr} {
			if !finite(f) {
				return fmt.Errorf("patch %q: non-finite field", p.Name)
			}
		}
		if d := s.MaxDivergence(); !(d <= w.maxDiv) {
			return fmt.Errorf("patch %q: max divergence %.3g above %.3g", p.Name, d, w.maxDiv)
		}
	}
	for _, a := range in.meta.Atomistic {
		n := len(a.Sys.Particles)
		if n < w.minParticles || n > w.maxParticles {
			return fmt.Errorf("region %q: %d particles outside [%d, %d]",
				a.Name, n, w.minParticles, w.maxParticles)
		}
		for i := range a.Sys.Particles {
			pt := &a.Sys.Particles[i]
			if !finiteVec(pt.Pos) || !finiteVec(pt.Vel) {
				return fmt.Errorf("region %q: non-finite particle %d", a.Name, pt.ID)
			}
		}
	}
	if in.tree != nil {
		for _, s := range in.tree.Segments {
			if !finite(s.A) || !finite(s.U) {
				return fmt.Errorf("1D segment %q: non-finite state", s.Name)
			}
		}
	}
	if in.ledger != nil && in.ledger.Status().Worst >= audit.SevCritical {
		return fmt.Errorf("audit: critical verdict")
	}
	return nil
}

func finite(f []float64) bool {
	for _, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func finiteVec(v geometry.Vec3) bool { return finite([]float64{v.X, v.Y, v.Z}) }

// fingerprint hashes the bits of the final state: the 3D fields of every
// patch, every particle's identity, position and velocity, and the 1D
// network state. GOMAXPROCS is part of it because the DPD force tiling, and
// with it the floating-point merge order, is fixed from GOMAXPROCS.
func fingerprint(m *core.Metasolver, tree *nektar1d.Network) string {
	ns := fnv.New64a()
	for _, p := range m.Patches {
		s := p.Solver
		ns.Write([]byte(p.Name))
		for _, f := range [][]float64{s.U, s.V, s.W, s.Pr} {
			hashFloats(ns, f...)
		}
	}
	dpd := fnv.New64a()
	for _, a := range m.Atomistic {
		dpd.Write([]byte(a.Name))
		for i := range a.Sys.Particles {
			pt := &a.Sys.Particles[i]
			hashFloats(dpd, float64(pt.ID), float64(pt.Species),
				pt.Pos.X, pt.Pos.Y, pt.Pos.Z, pt.Vel.X, pt.Vel.Y, pt.Vel.Z)
		}
	}
	oneD := fnv.New64a()
	if tree != nil {
		st := tree.CaptureState()
		for _, s := range st.Segments {
			oneD.Write([]byte(s.Name))
			hashFloats(oneD, s.A...)
			hashFloats(oneD, s.U...)
		}
		hashFloats(oneD, st.OutletP...)
		hashFloats(oneD, st.Time)
	}
	return fmt.Sprintf("ns=%016x dpd=%016x 1d=%016x gomaxprocs=%d",
		ns.Sum64(), dpd.Sum64(), oneD.Sum64(), runtime.GOMAXPROCS(0))
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}
