package main

import (
	"context"
	"fmt"

	"reveal/internal/core"
	"reveal/internal/experiments"
)

// runAttackStream is the -stream variant of 'revealctl attack': each e2
// trace is fed to the streaming engine in fixed-size chunks, every
// coefficient is classified the moment its segment closes and journaled
// (coeffs.jsonl, as the batch attack journals e2), and — unless
// the attack early-exited on -target-bikz — the streamed result's digest
// is cross-checked against the batch attack over the same trace with
// core's MatchesBatchPrefix (the determinism contract, verified on real
// output).
func runAttackStream(camp *campaign, s *experiments.Session, messages int, targetBikz float64, chunk int) error {
	if chunk < 1 {
		return fmt.Errorf("chunk must be at least 1 sample, got %d", chunk)
	}
	classifiedTotal, earlyExits, mismatches := 0, 0, 0
	var sumVAcc, sumSAcc float64
	for msg := 0; msg < messages; msg++ {
		pt := s.Params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64((i*31 + msg*7) % int(s.Params.T))
		}
		cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
		if err != nil {
			return err
		}
		sa, err := core.NewStreamAttack(s.Classifier, core.StreamAttackOptions{
			Coefficients: s.Params.N,
			TargetBikz:   targetBikz,
			Params:       s.Params,
		})
		if err != nil {
			return err
		}
		tr := cap.TraceE2
		for off := 0; off < len(tr) && !sa.EarlyExited(); off += chunk {
			end := off + chunk
			if end > len(tr) {
				end = len(tr)
			}
			if err := sa.Feed(tr[off:end]); err != nil {
				sa.Close()
				return err
			}
		}
		res, verdict, err := sa.Finish()
		if err != nil {
			return err
		}
		core.EmitCoeffEvents(context.Background(), "e2", res, cap.Truth.E2)
		classifiedTotal += verdict.Classified
		if verdict.EarlyExit {
			earlyExits++
		}
		vAcc, sAcc, err := res.Accuracy(cap.Truth.E2[:verdict.Classified])
		if err != nil {
			return err
		}
		sumVAcc += vAcc
		sumSAcc += sAcc
		fmt.Printf("message %d: streamed %d/%d coefficients (%d-sample chunks): value %.2f%%, sign %.2f%%, ttfh %.3fms, ttv %.3fms\n",
			msg, verdict.Classified, s.Params.N, chunk, 100*vAcc, 100*sAcc,
			verdict.TimeToFirstHint.Seconds()*1e3, verdict.TimeToVerdict.Seconds()*1e3)
		if verdict.EarlyExit {
			fmt.Printf("message %d: early exit after %d samples: %.2f bikz <= target %.2f (baseline %.2f)\n",
				msg, verdict.SamplesIngested, verdict.HintedBikz, targetBikz, verdict.BaselineBikz)
			continue
		}
		match, err := s.Classifier.MatchesBatchPrefix(context.Background(), tr, s.Params.N, res)
		if err != nil {
			return err
		}
		if !match {
			mismatches++
		}
		fmt.Printf("message %d: stream digest matches batch: %v\n", msg, match)
	}
	camp.setResult("messages", messages)
	camp.setResult("stream_classified", classifiedTotal)
	camp.setResult("stream_early_exits", earlyExits)
	camp.setResult("stream_digest_mismatches", mismatches)
	if messages > 0 {
		camp.setResult("mean_value_accuracy", sumVAcc/float64(messages))
		camp.setResult("mean_sign_accuracy", sumSAcc/float64(messages))
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d streamed messages diverged from the batch attack", mismatches, messages)
	}
	return nil
}
