// Command sweep runs a load sweep for one configuration and prints a CSV
// load-latency curve, the raw material of Fig. 4 / Fig. 5:
//
//	sweep -mode tdm -pattern tornado -from 0.05 -to 0.5 -step 0.05
//	sweep -mode packet -pattern ur > ps-ur.csv
//
// Sweeps execute on the campaign engine; pass -results sweep.jsonl to
// persist records so an interrupted or repeated sweep resumes from the
// finished points instead of recomputing them.
//
// With -fleet the sweep is submitted to a fleet coordinator instead of
// simulating locally: the jobs fan out across the coordinator's
// workers, the records come back through its content-addressed store
// (so repeated sweeps are served from cache), and the CSV is identical
// to a local run:
//
//	sweep -fleet http://localhost:8080 -mode tdm -pattern tornado
//
// With -spec the grid comes from a campaign spec file instead of the
// flags — the same file nocsimd accepts — and runs locally: a plain
// spec prints the CSV above, one row per job in the spec's expansion
// order (a Section V mix reports offered load 0: its benchmarks, not a
// rate, generate the traffic); a policy_profile spec prints the
// policy-comparison CSV.
//
//	sweep -spec scenarios/table3.json -results table3.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
	"tdmnoc/internal/textplot"
)

func main() {
	mode := flag.String("mode", "tdm", "switching mode: packet|tdm|sdm")
	pattern := flag.String("pattern", "tornado", "workload: ur|tornado|transpose|bc|neighbor|hotspot, or a Section V mix as mix:<CPU>+<GPU> (one row; the load range does not apply)")
	width := flag.Int("width", 6, "mesh width")
	height := flag.Int("height", 6, "mesh height")
	from := flag.Float64("from", 0.05, "first offered load")
	to := flag.Float64("to", 0.50, "last offered load")
	step := flag.Float64("step", 0.05, "offered load step")
	warmup := flag.Int("warmup", 8000, "warm-up cycles")
	cycles := flag.Int("cycles", 40000, "measured cycles")
	seed := flag.Uint64("seed", 1, "simulation seed")
	sharing := flag.Bool("sharing", false, "path sharing (tdm)")
	vcgating := flag.Bool("vcgating", false, "VC power gating")
	check := flag.Bool("check", false, "run the per-cycle invariant checker on every job (slower, never changes results)")
	results := flag.String("results", "", "persist records to this JSONL file (enables resume and caching)")
	plot := flag.Bool("plot", false, "render ASCII load-latency and energy charts after the CSV")
	fleetURL := flag.String("fleet", "", "submit to this fleet coordinator URL instead of simulating locally")
	tenant := flag.String("tenant", "", "tenant name for -fleet submissions")
	policies := flag.String("policies", "", "compare adaptive policies over the load range via the profile->re-run loop (comma-separated, e.g. static,threshold,greedy,sdm-gate); prints a policy-comparison CSV instead of the load-latency curve (tdm only)")
	profilesPath := flag.String("profiles", "", "with -policies, persist extracted traffic profiles to this JSONL file so repeated comparisons skip phase A")
	specPath := flag.String("spec", "", "run the campaign spec in this JSON file (e.g. scenarios/table3.json, or a policy_profile spec such as scenarios/fig4_policy.json) instead of building one from the flags")
	flag.Parse()

	var spec campaign.Spec
	if *specPath != "" {
		if *policies != "" {
			fmt.Fprintln(os.Stderr, "sweep: -spec declares its own policies; -policies does not combine with it")
			os.Exit(2)
		}
		f, err := os.Open(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec, err = campaign.ParseSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", *specPath, err)
			os.Exit(2)
		}
	} else {
		if *step <= 0 || *to < *from {
			fmt.Fprintf(os.Stderr, "sweep: bad load range [%v, %v] step %v\n", *from, *to, *step)
			os.Exit(2)
		}
		var rates []float64
		for r := *from; r <= *to+1e-9; r += *step {
			rates = append(rates, r)
		}
		spec = campaign.Spec{
			Name:            "sweep",
			Modes:           []string{*mode},
			Patterns:        []string{*pattern},
			Meshes:          []campaign.MeshSize{{Width: *width, Height: *height}},
			Rates:           rates,
			Seeds:           []uint64{*seed},
			PathSharing:     *sharing,
			VCPowerGating:   *vcgating,
			WarmupCycles:    *warmup,
			MeasureCycles:   *cycles,
			CheckInvariants: *check,
		}
		if *policies != "" {
			spec.Name = "policy-sweep"
			spec.PolicyProfile = &campaign.PolicyProfileSpec{Policies: strings.Split(*policies, ",")}
		}
	}
	jobs, err := spec.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var recs []campaign.Record
	if *fleetURL != "" {
		if spec.PolicyProfile != nil {
			fmt.Fprintln(os.Stderr, "sweep: the profile->re-run policy loop runs locally; it is not supported with -fleet")
			os.Exit(2)
		}
		recs, err = runOnFleet(*fleetURL, *tenant, spec, len(jobs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
	} else {
		var store *campaign.Store
		if *results != "" {
			store, err = campaign.OpenStore(*results)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer store.Close()
		}
		eng := campaign.New(campaign.Options{Store: store})
		if spec.PolicyProfile != nil {
			runPolicyLoop(eng, spec, *profilesPath)
			return
		}
		recs = eng.Run(context.Background(), jobs)
		st := eng.Status()
		fmt.Fprintf(os.Stderr, "sweep: %d jobs, %d served from cache, %d failed\n", len(jobs), st.CacheHits, st.Failed)
	}

	failed := 0
	fmt.Println("offered,accepted,payload_accepted,net_latency,total_latency,cs_fraction,energy_pj")
	for _, rec := range recs {
		if rec.Err != "" {
			fmt.Fprintf(os.Stderr, "sweep: %s: %s\n", rec.Label, rec.Err)
			failed++
			continue
		}
		res := rec.Result
		fmt.Printf("%.3f,%.4f,%.4f,%.2f,%.2f,%.4f,%.0f\n",
			rec.Rate, res.Throughput(), res.PayloadThroughput(), res.AvgNetLatency(), res.AvgTotalLatency(),
			res.CSFlitFraction(), res.EnergyPJ)
	}
	if *plot {
		lat := textplot.Plot{Title: "load vs total latency", XLabel: "offered flits/node/cycle", YLabel: "cycles", YMax: 300}
		acc := textplot.Plot{Title: "load vs accepted payload throughput", XLabel: "offered", YLabel: "accepted"}
		var xs, latY, accY []float64
		for _, rec := range recs {
			if rec.Err != "" {
				continue
			}
			xs = append(xs, rec.Rate)
			latY = append(latY, rec.Result.AvgTotalLatency())
			accY = append(accY, rec.Result.PayloadThroughput())
		}
		name := strings.Join(spec.Modes, "+") + "/" + strings.Join(spec.Patterns, "+")
		_ = lat.Add(textplot.Series{Name: name, X: xs, Y: latY})
		_ = acc.Add(textplot.Series{Name: name, X: xs, Y: accY})
		fmt.Println()
		fmt.Print(lat.Render())
		fmt.Println()
		fmt.Print(acc.Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runPolicyLoop drives the offline profile→re-run loop over a
// policy_profile spec (from -policies or a scenario file) and prints
// one CSV row per (grid point, policy) with the energy-per-flit and
// latency deltas against the static baseline. Negative deltas are
// improvements.
func runPolicyLoop(eng *campaign.Engine, spec campaign.Spec, profilesPath string) {
	var profs *campaign.ProfileStore
	if profilesPath != "" {
		p, err := campaign.OpenProfileStore(profilesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer p.Close()
		profs = p
	}
	rep, err := campaign.RunPolicyLoop(context.Background(), eng, spec, profs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := 0
	fmt.Println("label,policy,pins,base_energy_per_flit_pj,energy_per_flit_pj,energy_delta_pct,base_latency,latency,latency_delta_pct,throughput")
	for _, o := range rep.Outcomes {
		if o.Err != "" {
			fmt.Fprintf(os.Stderr, "sweep: %s/%s: %s\n", o.Label, o.Policy, o.Err)
			failed++
			continue
		}
		fmt.Printf("%s,%s,%d,%.3f,%.3f,%+.2f,%.2f,%.2f,%+.2f,%.4f\n",
			o.Label, o.Policy, len(o.Decision.PinnedFlows),
			o.BaseEnergyPerFlit, o.EnergyPerFlit, o.EnergyDeltaPct,
			o.BaseAvgLatency, o.AvgLatency, o.LatencyDeltaPct, o.Throughput)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runOnFleet submits the spec to the coordinator, waits for the
// campaign to finish, and fetches the records in job order — the same
// order a local engine run returns, so the CSV lines up with rates.
// Quota (429) and drain (503) rejections honour Retry-After.
func runOnFleet(base, tenant string, spec campaign.Spec, jobs int) ([]campaign.Record, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	body, err := json.Marshal(fleet.SubmitRequest{Tenant: tenant, Spec: spec})
	if err != nil {
		return nil, err
	}

	var sub fleet.SubmitResponse
	for {
		resp, err := client.Post(base+"/fleet/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("submit to fleet: %w", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			wait := 15 * time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				var secs int
				if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "sweep: coordinator busy (%d), retrying in %v\n", resp.StatusCode, wait)
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("submit to fleet: status %d: %s", resp.StatusCode, b)
		}
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode submit response: %w", err)
		}
		break
	}
	fmt.Fprintf(os.Stderr, "sweep: fleet campaign %s (%d jobs, %d shards, %d cached)\n",
		sub.ID, sub.Jobs, sub.Shards, sub.CachedShards)

	// Transport errors during the poll are tolerated for a bounded
	// window: a journaled coordinator restarting mid-sweep refuses
	// connections for a few seconds and then serves the same campaign
	// again, so giving up on the first refused dial would turn a clean
	// recovery into a failed sweep. HTTP status errors (404 on the
	// campaign, 500s) still fail fast — the coordinator is up and
	// disagreeing, retries won't reconcile that.
	const pollEvery = 500 * time.Millisecond
	transient := 0
	for done := false; !done; {
		var st fleet.CampaignStatus
		err := getJSON(client, base+"/fleet/campaigns/"+sub.ID, &st)
		switch {
		case err == nil:
			transient = 0
			done = st.State == "done"
		case isTransient(err):
			transient++
			if transient > 240 { // ~2 minutes of solid unreachability
				return nil, fmt.Errorf("coordinator unreachable for %v: %w", time.Duration(transient)*pollEvery, err)
			}
		default:
			return nil, err
		}
		if !done {
			time.Sleep(pollEvery)
		}
	}

	var recs []campaign.Record
	if err := getJSON(client, base+"/fleet/campaigns/"+sub.ID+"/results", &recs); err != nil {
		return nil, err
	}
	if len(recs) != jobs {
		return nil, fmt.Errorf("fleet returned %d records, want %d", len(recs), jobs)
	}
	return recs, nil
}

// isTransient reports whether err is a transport-level failure (refused
// dial, reset connection, timeout) as opposed to an HTTP status error.
func isTransient(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
