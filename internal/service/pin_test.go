package service

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/testkit"
)

// timingKeys are the result fields that measure wall-clock time; every
// other field of a campaign result is a deterministic function of its spec.
var timingKeys = []string{
	"profile_seconds", "attack_seconds", "stream_seconds", "elapsed_ms",
	"mean_ttfh_seconds", "mean_ttv_seconds", "ttfh_seconds", "ttv_seconds",
}

// pinnedFields decodes a raw campaign result and drops its timing fields,
// at the top level and in every run summary. The posterior tables of
// last_probs are replaced by the digest of their JSON.
func pinnedFields(t *testing.T, raw json.RawMessage) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep every number's exact decimal text
	var fields map[string]any
	if err := dec.Decode(&fields); err != nil {
		t.Fatal(err)
	}
	drop := func(m map[string]any) {
		for _, k := range timingKeys {
			delete(m, k)
		}
	}
	drop(fields)
	runs, _ := fields["runs"].([]any)
	for _, run := range runs {
		drop(run.(map[string]any))
	}
	if probs, ok := fields["last_probs"]; ok {
		fields["last_probs"] = "sha256:" + testkit.Digest(probs)
	}
	return fields
}

// TestCampaignResultsPinned runs an attack campaign over two encryptions
// with keep_probs, a batch-verified stream campaign and a stream campaign
// that exits early, in that order on one in-process worker, and compares
// every non-timing field of each result with testdata/campaigns/. The
// values were recorded on amd64; elsewhere only the runs are checked.
// `go test ./internal/service -run TestCampaignResultsPinned -update`
// rewrites the goldens.
func TestCampaignResultsPinned(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1, CacheCapacity: 2})
	ctx := context.Background()
	for _, c := range []struct {
		name string
		spec *CampaignSpec
	}{
		{"attack", &CampaignSpec{Kind: KindAttack, Seed: 21, ProfileTracesPerValue: 8,
			Encryptions: 2, Workers: 2, KeepProbs: true}},
		{"stream-verify", &CampaignSpec{Kind: KindStream, Seed: 21, ProfileTracesPerValue: 8,
			VerifyBatch: true, ChunkSamples: 2048}},
		{"stream-early", &CampaignSpec{Kind: KindStream, Seed: 21, ProfileTracesPerValue: 8,
			Encryptions: 2, TargetBikz: 330}},
	} {
		st, err := client.Submit(ctx, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		waitCtx, cancel := context.WithTimeout(ctx, 180*time.Second)
		done, err := client.WaitDone(waitCtx, st.ID, 20*time.Millisecond)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if done.State != jobs.StateDone {
			t.Fatalf("%s campaign ended %s: %s", c.name, done.State, done.Error)
		}
		var raw json.RawMessage
		if err := client.Result(ctx, st.ID, &raw); err != nil {
			t.Fatal(err)
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		testkit.Golden(t, "testdata/campaigns/"+c.name+".json", pinnedFields(t, raw))
	}
}
