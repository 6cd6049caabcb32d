package hsnoc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tdmnoc/internal/topology"
	"tdmnoc/internal/trace"
	"tdmnoc/internal/traffic"
)

// heteroPin is every figure the Section V facade reported before it
// became a workload of Simulator, plus the protocol diagnostics.
type heteroPin struct {
	Mix              string      `json:"mix"`
	Config           string      `json:"config"`
	CPUInstructions  int64       `json:"cpu_instructions"`
	GPUIterations    int64       `json:"gpu_iterations"`
	GPUInjectionRate float64     `json:"gpu_injection_rate"`
	GPUCSFraction    float64     `json:"gpu_cs_fraction"`
	AvgCPULatency    float64     `json:"avg_cpu_latency"`
	AvgGPULatency    float64     `json:"avg_gpu_latency"`
	Hitchhikes       int64       `json:"hitchhikes"`
	VicinityRides    int64       `json:"vicinity_rides"`
	Energy           Energy      `json:"energy"`
	Cycles           int64       `json:"cycles"`
	Diagnose         Diagnostics `json:"diagnose"`
}

// replayPin is the figure set `tracegen -replay` printed before replay
// moved into `nocsim -replay`.
type replayPin struct {
	Mode            string  `json:"mode"`
	Packets         int64   `json:"packets"`
	AvgNetLatency   float64 `json:"avg_net_latency"`
	AvgTotalLatency float64 `json:"avg_total_latency"`
	CSFlitFraction  float64 `json:"cs_flit_fraction"`
	EnergyPJ        float64 `json:"energy_pj"`
}

// checkGolden compares v's indented JSON with testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed (intentional model changes: regenerate with -update)\n got %s\nwant %s", name, got, want)
	}
}

// TestGoldenHetero pins the Section V figures of two mixes under the
// baseline and the full hybrid configuration. The file was generated at
// the last commit that had a separate HeteroSimulator, so it proves the
// tile system simulates bit-identically as a Simulator workload.
func TestGoldenHetero(t *testing.T) {
	hop := DefaultConfig(6, 6)
	hop.Mode = HybridTDM
	hop.PathSharing = true
	hop.VCPowerGating = true
	configs := []struct {
		name string
		cfg  Config
	}{{"Packet-VC4", DefaultConfig(6, 6)}, {"Hybrid-TDM-hop-VCt", hop}}
	var pins []heteroPin
	for _, mix := range [][2]string{{"EQUAKE", "BLACKSCHOLES"}, {"ART", "LPS"}} {
		for _, c := range configs {
			h, err := NewHeterogeneous(c.cfg, mix[0], mix[1])
			if err != nil {
				t.Fatal(err)
			}
			h.Warmup(2000)
			res := h.Run(6000)
			pins = append(pins, heteroPin{
				Mix: mix[1] + "/" + mix[0], Config: c.name,
				CPUInstructions: res.CPUInstructions, GPUIterations: res.GPUIterations,
				GPUInjectionRate: res.GPUInjectionRate, GPUCSFraction: res.GPUCSFraction,
				AvgCPULatency: res.AvgCPULatency, AvgGPULatency: res.AvgGPULatency,
				Hitchhikes: res.Hitchhikes, VicinityRides: res.VicinityRides,
				Energy: res.Energy, Cycles: res.Cycles, Diagnose: h.Diagnose(),
			})
			h.Close()
		}
	}
	checkGolden(t, "golden-hetero.json", pins)
}

// TestGoldenReplay pins a hotspot trace replayed to completion on both
// networks. The file was generated at the last commit where tracegen
// built its own network (network.New + trace.NewReplayers, stats on,
// Run(Duration+10), Drain(200000)), so it proves NewReplay lowers to
// the same network and that a measured region extended by Drain reports
// what the hand-rolled path did.
func TestGoldenReplay(t *testing.T) {
	tr := trace.Synthesize(traffic.Hotspot, topology.NewMesh(6, 6), 0.12, 5, 8000, 42)
	var pins []replayPin
	for _, mode := range []Mode{PacketSwitched, HybridTDM} {
		cfg := DefaultConfig(6, 6)
		cfg.Mode = mode
		s, err := NewReplay(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(int(tr.Duration()) + 10)
		if !s.Drain(200000) {
			t.Fatalf("%v: replay did not drain", mode)
		}
		res := s.Run(0)
		s.Close()
		if res.Packets != int64(len(tr.Events)) {
			t.Errorf("%v: delivered %d of %d events", mode, res.Packets, len(tr.Events))
		}
		pins = append(pins, replayPin{
			Mode: map[Mode]string{PacketSwitched: "packet", HybridTDM: "tdm"}[mode], Packets: res.Packets,
			AvgNetLatency: res.AvgNetLatency, AvgTotalLatency: res.AvgTotalLatency,
			CSFlitFraction: res.CSFlitFraction, EnergyPJ: res.Energy.TotalPJ,
		})
	}
	checkGolden(t, "golden-replay.json", pins)
}
