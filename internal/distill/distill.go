// Package distill implements QuickDrop's in-situ dataset distillation
// (paper §3.2): each client synthesizes a tiny per-class dataset whose
// gradients match the gradients of its real data along the FL training
// trajectory (gradient matching, Zhao et al. ICLR '21). The synthetic set
// is a compressed representation of the client's gradient information,
// reused downstream for fast unlearning, recovery and relearning.
package distill

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/data"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/tensor"
)

// Config parameterizes synthetic data generation (paper §4.1).
type Config struct {
	// Scale is s: each client keeps ⌈|D_ic|/s⌉ synthetic samples per class
	// (paper default 100 → 1% of the data volume).
	Scale float64
	// Steps is ς_S, the number of synthetic-update steps per local FL step.
	Steps int
	// LR is η_S, the synthetic-sample learning rate.
	LR float64
	// RealBatch is the per-class real minibatch size used when matching.
	RealBatch int
	// Eps stabilizes the cosine distance denominator.
	Eps float64
	// NoiseInit initializes synthetic samples from Gaussian noise instead
	// of real samples (ablation; the paper found real-sample init better).
	NoiseInit bool
	// Groups splits every class into this many fixed random subsets with
	// independently distilled synthetic counterparts, enabling
	// sample-level unlearning at subset granularity (paper §5.1's
	// future-work extension). 0 or 1 reproduces the paper's class-wise
	// behaviour.
	Groups int
	// Objective selects the distillation loss; the zero value is the
	// paper's gradient matching.
	Objective Objective
}

// DefaultConfig mirrors the paper's hyperparameters (s=100, ς_S=1, η_S=0.1)
// with a matching batch suitable for the scaled-down datasets.
func DefaultConfig() Config {
	return Config{Scale: 100, Steps: 1, LR: 0.1, RealBatch: 16, Eps: 1e-6}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Steps < 1 || c.LR <= 0 || c.RealBatch < 1 || c.Eps <= 0 {
		return fmt.Errorf("distill: invalid config %+v", c)
	}
	if c.Groups < 0 {
		return fmt.Errorf("distill: negative group count %d", c.Groups)
	}
	return nil
}

// groupCount returns the effective per-class group count.
func (c Config) groupCount() int {
	if c.Groups < 1 {
		return 1
	}
	return c.Groups
}

// InitSynthetic creates a client's synthetic dataset per Algorithm 2
// (lines 2–7): for every class the client holds, pick ⌈|D_ic|/s⌉ samples
// at random and clone them as the initial synthetic points. With
// cfg.NoiseInit the clones are replaced by Gaussian noise of matching
// shape (ablation).
func InitSynthetic(client *data.Dataset, cfg Config, rng *rand.Rand) *data.Dataset {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	syn, _ := buildGrouping(client, cfg, 1, rng)
	return syn
}

// MatchDistance computes the layer-wise grouped cosine distance
// d(∇L^S, ∇L^D) of Zhao et al.: for every parameter, gradients are grouped
// per output unit (matrix columns; vectors form one group) and the
// distance is Σ_groups (1 − cosθ). gS must be graph-connected values
// (gradients with create-graph); gD are detached. Both hold at least one
// gradient.
func MatchDistance(gS, gD []*ad.Value, eps float64) *ad.Value {
	if len(gS) != len(gD) {
		panic(fmt.Sprintf("distill: %d synthetic grads vs %d real grads", len(gS), len(gD)))
	}
	var total *ad.Value
	for i := range gS {
		s, d := gS[i], gD[i]
		if !s.Data.SameShape(d.Data) {
			panic(fmt.Sprintf("distill: grad %d shape mismatch %s vs %s", i, s.Data.ShapeString(), d.Data.ShapeString()))
		}
		// Group per output unit: matrices [R, C] have C groups (columns);
		// vectors become a single column.
		if s.Data.Dims() != 2 {
			n := s.Data.Len()
			s = ad.Reshape(s, n, 1)
			d = ad.Reshape(d, n, 1)
		}
		cols := s.Data.Dim(1)
		// Column-wise dot products in one fused reduction each: the
		// gradient-sized products s⊙d, s⊙s, d⊙d are never materialized.
		dot := ad.MulSum(s, d, 0) // [1, C]
		nS := ad.MulSum(s, s, 0)  // [1, C]
		nD := ad.MulSum(d, d, 0)  // [1, C]
		den := ad.AddConst(ad.Sqrt(ad.Mul(nS, nD)), eps)
		cos := ad.Div(dot, den)
		// cols − Σcos, as (−Σcos) + cols: the same float, without a heap
		// constant per parameter.
		term := ad.AddConst(ad.Neg(ad.SumAll(cos)), float64(cols))
		if total == nil {
			// The first term seeds the sum: a zero constant would cost a
			// heap tensor and node per call.
			total = term
		} else {
			total = ad.Add(total, term)
		}
	}
	return total
}

// L2Distance is the plain squared-L2 alternative distance (ablation).
func L2Distance(gS, gD []*ad.Value, _ float64) *ad.Value {
	var total *ad.Value
	for i := range gS {
		diff := ad.Sub(gS[i], gD[i])
		term := ad.SumAll(ad.Mul(diff, diff))
		if total == nil {
			// The first term seeds the sum, as in MatchDistance: a sum of
			// squares is never −0, so 0 + term would be term bitwise.
			total = term
		} else {
			total = ad.Add(total, term)
		}
	}
	return total
}

// DistanceFunc measures the discrepancy between two gradient lists.
type DistanceFunc func(gS, gD []*ad.Value, eps float64) *ad.Value

// Matcher owns per-client synthetic sets and performs the in-situ
// gradient-matching updates during FL training (Algorithm 2 lines 12–15).
// Attach Hook to the fl.PhaseConfig of the training phase. MatchSteps on
// distinct clients may run concurrently: each touches only its client's
// synthetic set, and the shared DDTime and Counter are guarded. Read
// those two once no MatchStep is running.
type Matcher struct {
	Cfg Config
	// Sets maps client ID to its synthetic dataset.
	Sets map[int]*data.Dataset
	// Groupings maps client ID to the sub-class group structure. With
	// Cfg.Groups ≤ 1 every class forms one group (the paper's setting).
	Groupings map[int]*Grouping
	// Distance is the matching objective (MatchDistance by default).
	Distance DistanceFunc
	// DDTime accumulates wall time spent in distillation, the quantity in
	// the paper's Table 6 overhead analysis.
	DDTime time.Duration
	// Counter tracks gradient evaluations performed for distillation.
	Counter optim.Counter
	// Telemetry, if set, counts every MatchStep. Nil is free.
	Telemetry *telemetry.Pipeline

	mu sync.Mutex // guards DDTime and Counter
}

// NewMatcher initializes synthetic sets for every client in the registry.
// Shards are materialized one at a time in ascending client-ID order (the
// order fixes the RNG stream), so peak memory stays one shard, not the
// cohort.
func NewMatcher(cfg Config, clients fl.ClientRegistry, rng *rand.Rand) *Matcher {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	n := 0
	if clients != nil {
		n = clients.NumClients()
	}
	m := &Matcher{
		Cfg:       cfg,
		Sets:      make(map[int]*data.Dataset, n),
		Groupings: make(map[int]*Grouping, n),
		Distance:  MatchDistance,
	}
	for i := 0; i < n; i++ {
		if clients.ShardLen(i) == 0 {
			continue
		}
		if c := clients.Shard(i); c != nil && c.Len() > 0 {
			syn, grouping := buildGrouping(c, cfg, cfg.groupCount(), rng)
			m.Sets[i] = syn
			m.Groupings[i] = grouping
		}
	}
	return m
}

// Hook returns the fl.LocalStepHook that performs one matching update per
// local FL step, class-wise, as in Algorithm 2.
func (m *Matcher) Hook() fl.LocalStepHook {
	return func(ctx fl.StepContext) { m.MatchStep(ctx) }
}

// MatchStep performs the class-wise gradient-matching update for one
// client local step: for every class the client holds, it computes the
// real-data gradient (detached), the synthetic-data gradient
// (graph-connected), their grouped cosine distance, and takes ς_S SGD
// steps on the synthetic pixels.
func (m *Matcher) MatchStep(ctx fl.StepContext) {
	syn := m.Sets[ctx.ClientID]
	if syn == nil || syn.Len() == 0 {
		return
	}
	// DD-overhead accounting (Table 6) goes through the telemetry clock:
	// the reading feeds DDTime, never the numerics.
	sw := telemetry.StartTimer()
	defer func() {
		d := sw.Elapsed()
		m.mu.Lock()
		m.DDTime += d
		m.mu.Unlock()
		m.Telemetry.EndDistill()
	}()

	if grouping := m.Groupings[ctx.ClientID]; grouping != nil {
		// Group-wise matching: each (class, group) subset matches its own
		// real counterpart.
		for _, key := range grouping.Keys() {
			realIdx, synIdx := grouping.Real[key], grouping.Syn[key]
			if len(realIdx) == 0 || len(synIdx) == 0 {
				continue
			}
			m.matchClass(ctx, syn, realIdx, synIdx)
		}
		return
	}
	// No grouping recorded (e.g. a standalone fine-tuning matcher): fall
	// back to the paper's class-wise matching.
	realByClass := ctx.Client.ByClass()
	synByClass := syn.ByClass()
	for _, class := range sortedKeys(synByClass) {
		realIdx := realByClass[class]
		if len(realIdx) == 0 {
			continue
		}
		m.matchClass(ctx, syn, realIdx, synByClass[class])
	}
}

// matchClass runs the per-class matching update: realIdx and synIdx index
// the same class in the client's real and synthetic datasets.
func (m *Matcher) matchClass(ctx fl.StepContext, syn *data.Dataset, realIdx, synIdx []int) {
	// The real batch: at most RealBatch of the class's samples.
	batch := realIdx
	if len(batch) > m.Cfg.RealBatch {
		perm := ctx.Rng.Perm(len(realIdx))[:m.Cfg.RealBatch]
		batch = make([]int, m.Cfg.RealBatch)
		for i, p := range perm {
			batch[i] = realIdx[p]
		}
	}
	if m.Cfg.Objective == DistributionMatching {
		m.matchDistribution(ctx, syn, batch, synIdx)
		return
	}
	model, arena := ctx.Model, ctx.Model.Arena()

	// Both passes' inputs, both gradient graphs and the matching graph of
	// an iteration live in the model's step arena until the reset that
	// ends the iteration, so the real gradients are matched in place,
	// without a detaching copy.
	gD := make([]*ad.Value, len(model.Params()))
	gt := make([]*tensor.Tensor, len(gD))
	// One label buffer serves both passes in turn: the real labels are
	// consumed before the synthetic batch is gathered.
	labels := make([]int, 0, max(len(batch), len(synIdx)))

	for step := 0; step < m.Cfg.Steps; step++ {
		// Real gradient for this class: a first-order graph, whose
		// gradients enter the matching graph as constants.
		xD, yD := ctx.Client.BatchInto(arena.Tensor(), labels, batch)
		model.LossGrads(gt, xD, yD)
		for i, g := range gt {
			gD[i] = arena.Const(g)
		}
		m.addBatch(len(batch))

		// Synthetic gradient, graph-connected to the synthetic pixels.
		xS, yS := syn.BatchInto(arena.Tensor(), labels, synIdx)
		sVar := arena.Var(xS)
		boundS := model.BindStep()
		lossS := nn.CrossEntropy(boundS.Forward(sVar), nn.OneHotInto(arena.Tensor(), yS, model.Classes))
		gS := ad.MustGrad(lossS, boundS.ParamVars())
		m.addBatch(len(synIdx))

		dist := m.Distance(gS, gD, m.Cfg.Eps)
		gradS := ad.MustGrad(dist, []*ad.Value{sVar})[0]
		// The client's health fork watches the matching numerics: every
		// update feeds the distance into the NaN tripwire, and the pixel
		// gradient's norm is sampled on the fork's cadence.
		if ctx.Health != nil {
			gl2, gn, gi := 0.0, 0, 0
			if ctx.Health.Sample() {
				gl2, gn, gi = tensor.NormStats(gradS.Data)
			}
			ctx.Health.RecordDistill(float64(ctx.PhaseStep), dist.Item(), gl2, gn+gi)
		}

		// SGD step on the synthetic pixels, taken in the gathered batch
		// (its graph is dead) and written back per sample.
		tensor.AddScaledInto(xS, xS, -m.Cfg.LR, gradS.Data)
		writeBack(syn, synIdx, xS)
		arena.Reset() // the iteration's inputs and graphs are dead from here on
	}
}

// matchDistribution performs the first-order distribution-matching
// update: the synthetic pixels descend on the squared distance between
// the mean penultimate-layer embeddings of synthetic and real samples.
// realIdx and synIdx index one class of the client's real and synthetic
// datasets.
func (m *Matcher) matchDistribution(ctx fl.StepContext, syn *data.Dataset, realIdx, synIdx []int) {
	model, arena := ctx.Model, ctx.Model.Arena()
	embLayer := len(model.Layers()) - 1 // stop before the classifier
	labels := make([]int, 0, max(len(realIdx), len(synIdx)))
	for step := 0; step < m.Cfg.Steps; step++ {
		// One frozen bind serves both embedding graphs; it and the input
		// leaves live in the step arena.
		bound := model.BindFrozen()
		xD, _ := ctx.Client.BatchInto(arena.Tensor(), labels, realIdx)
		embD := flatten2D(bound.ForwardUpTo(arena.Const(xD), embLayer))
		m.addBatch(len(realIdx))

		xS, _ := syn.BatchInto(arena.Tensor(), labels, synIdx)
		sVar := arena.Var(xS)
		embS := flatten2D(bound.ForwardUpTo(sVar, embLayer))
		m.addBatch(len(synIdx))

		dist := distributionDistance(embS, embD)
		gradS := ad.MustGrad(dist, []*ad.Value{sVar})[0]
		tensor.AddScaledInto(xS, xS, -m.Cfg.LR, gradS.Data)
		writeBack(syn, synIdx, xS)
		arena.Reset() // the iteration's inputs and graphs are dead from here on
	}
}

// addBatch charges one forward/backward pass over n samples to Counter.
func (m *Matcher) addBatch(n int) {
	m.mu.Lock()
	m.Counter.AddBatch(n)
	m.mu.Unlock()
}

// writeBack copies the rows of an updated synthetic batch into the
// per-sample tensors of syn they were gathered from.
func writeBack(syn *data.Dataset, synIdx []int, updated *tensor.Tensor) {
	per := syn.H * syn.W * syn.C
	for bi, si := range synIdx {
		copy(syn.X[si].Data(), updated.Data()[bi*per:(bi+1)*per])
	}
}

// flatten2D reshapes an activation to [B, rest].
func flatten2D(v *ad.Value) *ad.Value {
	batch := v.Data.Dim(0)
	return ad.Reshape(v, batch, v.Data.Len()/batch)
}

func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
