// Package mia implements the membership-inference attack the paper uses
// to validate unlearning (§4.2.3, Fig. 3): an attack model is fitted to
// distinguish training members from non-members using the target model's
// per-sample behaviour, and is then asked how often it classifies forget-
// set and retain-set samples as members. Successful unlearning drives the
// F-Set member rate to ≈0 while the R-Set rate stays high.
package mia

import (
	"fmt"
	"math"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// Features summarizes the target model's behaviour on one sample; all
// three signals are standard membership cues.
type Features struct {
	// Loss is the cross-entropy of the true label.
	Loss float64
	// Confidence is the softmax probability of the predicted class.
	Confidence float64
	// Entropy is the softmax entropy.
	Entropy float64
}

// Extract computes features for every sample in ds.
func Extract(m *nn.Model, ds *data.Dataset) []Features {
	if ds.Len() == 0 {
		return nil
	}
	x, labels := ds.All()
	probs := nn.Softmax(m.Logits(x))
	classes := ds.Classes
	out := make([]Features, ds.Len())
	for i := range out {
		var f Features
		maxP := 0.0
		for c := 0; c < classes; c++ {
			p := probs.At(i, c)
			if p > maxP {
				maxP = p
			}
			if p > 1e-12 {
				f.Entropy -= p * math.Log(p)
			}
		}
		py := probs.At(i, labels[i])
		f.Loss = -math.Log(math.Max(py, 1e-12))
		f.Confidence = maxP
		out[i] = f
	}
	return out
}

// ThresholdAttack is the loss-threshold membership test (Yeom et al.):
// a sample is declared a member when its loss falls below a threshold
// calibrated on known members and non-members.
type ThresholdAttack struct {
	Threshold float64
}

// TrainThreshold calibrates the loss threshold that maximizes balanced
// accuracy on the given member/non-member examples.
func TrainThreshold(m *nn.Model, members, nonMembers *data.Dataset) (*ThresholdAttack, error) {
	if members.Len() == 0 || nonMembers.Len() == 0 {
		return nil, fmt.Errorf("mia: need non-empty member and non-member sets")
	}
	mf, nf := Extract(m, members), Extract(m, nonMembers)
	// Candidate thresholds: all observed losses.
	var candidates []float64
	for _, f := range mf {
		candidates = append(candidates, f.Loss)
	}
	for _, f := range nf {
		candidates = append(candidates, f.Loss)
	}
	best, bestAcc := candidates[0], -1.0
	for _, th := range candidates {
		tp, tn := 0, 0
		for _, f := range mf {
			if f.Loss <= th {
				tp++
			}
		}
		for _, f := range nf {
			if f.Loss > th {
				tn++
			}
		}
		acc := 0.5*float64(tp)/float64(len(mf)) + 0.5*float64(tn)/float64(len(nf))
		if acc > bestAcc {
			best, bestAcc = th, acc
		}
	}
	return &ThresholdAttack{Threshold: best}, nil
}

// MemberRate returns the fraction of ds's samples the attack classifies
// as training members.
func (a *ThresholdAttack) MemberRate(m *nn.Model, ds *data.Dataset) float64 {
	fs := Extract(m, ds)
	if len(fs) == 0 {
		return 0
	}
	members := 0
	for _, f := range fs {
		if f.Loss <= a.Threshold {
			members++
		}
	}
	return float64(members) / float64(len(fs))
}

// AUC returns the area under the ROC curve of the loss-based membership
// score separating members from non-members (Mann–Whitney U statistic):
// the probability that a random member has lower loss than a random
// non-member. 0.5 means the attack is blind; 1.0 is perfect separation.
func AUC(m *nn.Model, members, nonMembers *data.Dataset) (float64, error) {
	if members.Len() == 0 || nonMembers.Len() == 0 {
		return 0, fmt.Errorf("mia: need non-empty member and non-member sets")
	}
	mf, nf := Extract(m, members), Extract(m, nonMembers)
	wins := 0.0
	for _, a := range mf {
		for _, b := range nf {
			switch {
			case a.Loss < b.Loss:
				wins++
			case a.Loss == b.Loss:
				wins += 0.5
			}
		}
	}
	return wins / float64(len(mf)*len(nf)), nil
}
