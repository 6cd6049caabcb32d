package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

// readSpec loads and normalizes a campaign spec file.
func readSpec(path string) (campaign.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return campaign.Spec{}, err
	}
	defer f.Close()
	spec, err := campaign.ParseSpec(f)
	if err != nil {
		return campaign.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// printCSV prints a plain spec's records, one row per job in expansion
// order; a failed job's result cells print n/a.
func (rc *runConfig) printCSV(jobs []campaign.Job, recs []campaign.Record) {
	rc.println("label,offered,accepted,payload_accepted,net_latency,total_latency,cs_fraction,energy_pj")
	for i, rec := range recs {
		if rec.Err != "" {
			rc.printf("%s,%.3f,n/a,n/a,n/a,n/a,n/a,n/a\n", jobs[i].Label, jobs[i].Rate)
			continue
		}
		res := rec.Result
		rc.printf("%s,%.3f,%.4f,%.4f,%.2f,%.2f,%.4f,%.0f\n",
			jobs[i].Label, jobs[i].Rate, res.Throughput(), res.PayloadThroughput(), res.AvgNetLatency(), res.AvgTotalLatency(),
			res.CSFlitFraction(), res.EnergyPJ)
	}
}

// runPolicyLoop drives the offline profile→re-run loop over a
// policy_profile spec and prints one CSV row per (grid point, policy)
// with the energy-per-flit and latency deltas against the static
// baseline. Negative deltas are improvements.
func (rc *runConfig) runPolicyLoop(spec campaign.Spec, profilesPath string) error {
	var profs *campaign.ProfileStore
	if profilesPath != "" {
		p, err := campaign.OpenProfileStore(profilesPath)
		if err != nil {
			return err
		}
		defer p.Close()
		profs = p
	}
	rep, err := campaign.RunPolicyLoop(context.Background(), rc.engine(), spec, profs)
	if err != nil {
		return err
	}
	rc.println("label,policy,pins,base_energy_per_flit_pj,energy_per_flit_pj,energy_delta_pct,base_latency,latency,latency_delta_pct,throughput")
	for _, o := range rep.Outcomes {
		if o.Err != "" {
			fmt.Fprintf(rc.stderr, "experiments: job %s/%s failed: %s\n", o.Label, o.Policy, o.Err)
			rc.failed = true
			rc.printf("%s,%s,n/a,n/a,n/a,n/a,n/a,n/a,n/a,n/a\n", o.Label, o.Policy)
			continue
		}
		rc.printf("%s,%s,%d,%.3f,%.3f,%+.2f,%.2f,%.2f,%+.2f,%.4f\n",
			o.Label, o.Policy, len(o.Decision.PinnedFlows),
			o.BaseEnergyPerFlit, o.EnergyPerFlit, o.EnergyDeltaPct,
			o.BaseAvgLatency, o.AvgLatency, o.LatencyDeltaPct, o.Throughput)
	}
	return nil
}

// runOnFleet submits the spec to the coordinator, waits for the
// campaign to finish, and fetches the records in job order — the same
// order a local engine run returns, so the CSV lines up with the jobs.
// Quota (429) and drain (503) rejections honour Retry-After; progress
// notes go to log.
func runOnFleet(log io.Writer, base, tenant string, spec campaign.Spec, jobs int) ([]campaign.Record, error) {
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
			fmt.Fprintf(log, "experiments: coordinator busy (%d), retrying in %v\n", resp.StatusCode, wait)
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
	fmt.Fprintf(log, "experiments: fleet campaign %s (%d jobs, %d shards, %d cached)\n",
		sub.ID, sub.Jobs, sub.Shards, sub.CachedShards)

	// Transport errors during the poll are tolerated for a bounded
	// window: a journaled coordinator restarting mid-campaign refuses
	// connections for a few seconds and then serves the same campaign
	// again, so giving up on the first refused dial would turn a clean
	// recovery into a failed run. HTTP status errors (404 on the
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
