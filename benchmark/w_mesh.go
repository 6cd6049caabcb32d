package main

import (
	"time"

	"tdmnoc/hsnoc"
)

// meshRate is mesh32_par2's offered load: uniform random at ~75% of the
// 4/k bisection bound of a 32-wide mesh.
const meshRate = 0.09

type meshSize struct{ warm, measure int }

func meshSizeFor(e *env) meshSize {
	// 1100 simulated cycles per sizing-second: 1024 routers at ~900
	// ns/router/cycle with Workers=2 is ~1 host second on the reference
	// sandbox in its slow phases (README, "Sizing").
	cycles := int(1100 * e.seconds)
	if e.smoke {
		return meshSize{warm: 150, measure: 450} // shorter and the ramp-up alone fails the health floor
	}
	return meshSize{warm: cycles / 10, measure: cycles - cycles/10}
}

// meshConfig is the paper's Fig. 6 practice at >=256 nodes: static
// 256-entry slot tables.
func meshConfig(seed uint64) hsnoc.Config {
	cfg := hsnoc.DefaultConfig(32, 32)
	cfg.Mode = hsnoc.HybridTDM
	cfg.SlotTableEntries = 256
	cfg.DisableDynamicSlotSizing = true
	cfg.Workers = 2
	cfg.Seed = seed
	return cfg
}

func runMesh32(e *env) outcome {
	size := meshSizeFor(e)
	var o outcome
	o.attempted = 1
	cfg := meshConfig(e.seed)

	// Each set-up is ~0.4 s and 550 MB, long enough to see both speeds of
	// the box and too big to repeat while the measured network is alive:
	// all repeats run up front.
	var s *hsnoc.Simulator
	su := setups{fn: func() (func(), error) {
		sp := e.tr.begin("hsnoc.NewSynthetic", 0, 0, -1)
		s = hsnoc.NewSynthetic(cfg, hsnoc.UniformRandom, meshRate)
		e.tr.end(sp)
		return func() { s.Close(); s = nil }, nil
	}}
	su.first(e.setups) // fn never fails
	o.setupS = su.center()
	defer func() {
		if s != nil {
			s.Close()
		}
	}()

	start := time.Now()
	guard(&o, "mesh32", func() {
		root := e.tr.begin("op", 0, 0, -1)
		defer e.tr.end(root)
		var res hsnoc.Results
		var allocs uint64
		o.workS, allocs = simulate(e.tr, 0, root, func() { s.Warmup(size.warm) }, func() { res = s.Run(size.measure) })
		o.set("flit.allocs_per_kcycle", 1000*float64(allocs)/float64(size.warm+size.measure))
		logf("mesh32_par2: accepted %.4f of %.2f flits/node/cycle, CS fraction %.3f, %d circuits",
			res.PayloadThroughput, meshRate, res.CSFlitFraction, res.CircuitsEstablished)
		if why, ok := healthy(hsnoc.UniformRandom, 32, 32, meshRate, res.PayloadThroughput); !ok {
			o.fail(1, "mesh32: %s", why)
		}
	})
	o.wallS = time.Since(start).Seconds()
	o.rssMB = selfRSSMB()
	o.work = 1024 * float64(size.warm+size.measure)

	// Free the measured network before the gate builds two more.
	s.Close()
	s = nil
	gatePrefix(&o, "mesh32", cfg, hsnoc.UniformRandom, meshRate, prefixFor(e, true))
	return o
}
