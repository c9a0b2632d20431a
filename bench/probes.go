package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/eval"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/serve"
	"quickdrop/internal/tensor"
)

// The layer probes time calls into each package's public functions from
// outside, at the substrate's shapes. They run in every traced run, after
// the workload's own sections, so a layer metric means the same thing
// whichever workload's trace it is read from.

// probeBatch is the training batch size every kernel shape derives from.
const probeBatch = 16

// measure runs prep (untimed, may be nil) and then inner calls of fn
// (timed) n times after one discarded warm-up, and returns the time per
// call in nanoseconds, one sample per repetition, with the heap objects
// and bytes one call allocates. Memory statistics are read outside the
// timed interval.
func measure(n, inner int, prep, fn func()) (ns []float64, allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	for rep := -1; rep < n; rep++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if rep < 0 {
			continue
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(inner))
		allocs += float64(m1.Mallocs-m0.Mallocs) / float64(inner)
		bytes += float64(m1.TotalAlloc-m0.TotalAlloc) / float64(inner)
	}
	return ns, allocs / float64(n), bytes / float64(n)
}

// prober carries what the probes share: the environment, the collector
// the layer series go to, the tracer, and the repetition scale.
type prober struct {
	e      *env
	s      *samples
	tr     *tracer
	parent int
	rng    *rand.Rand
}

// reps scales a repetition count down for -quick.
func (p *prober) reps(n int) int {
	if p.e.quick {
		return max(2, n/10)
	}
	return n
}

// timed records the median-ready series of fn under name, in the unit the
// name's suffix says, and returns the allocation figures.
func (p *prober) timed(name string, n, inner int, prep, fn func()) (allocs, bytes float64) {
	ns, allocs, bytes := measure(p.reps(n), inner, prep, fn)
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unitOf(name)]
	for _, v := range ns {
		p.s.add(name, v/div)
	}
	return allocs, bytes
}

// runProbes runs every layer probe, each under its own span.
func runProbes(e *env, s *samples, tr *tracer, parent int) {
	if err := e.ensureCore(); err != nil {
		s.attempted++
		s.fail("probes: %v", err)
		return
	}
	s.add("core.train15_s", e.train15.Seconds())
	s.add("core.state_kb", float64(len(e.state))/1024)
	for _, pr := range []struct {
		name string
		run  func(*prober) error
	}{
		{"probe.tensor", probeTensor},
		{"probe.model", probeModel},
		{"probe.distill", probeDistill},
		{"probe.fl", probeFL},
		{"probe.core", probeCore},
		{"probe.serve", probeServe},
		{"probe.misc", probeMisc},
	} {
		s.attempted++
		id := tr.begin(pr.name, parent, 0)
		p := &prober{e: e, s: s, tr: tr, parent: id, rng: rand.New(rand.NewSource(e.seed))}
		if err := pr.run(p); err != nil {
			s.fail("%s: %v", pr.name, err)
		}
		tr.finish(id)
	}
}

// probeTensor times the kernels at the ConvNet's shapes for a batch of
// 16: one im2col product per block and the classifier product, with the
// two transposed products their backward passes use.
func probeTensor(p *prober) error {
	arch := p.e.cfg.Arch
	type product struct{ a, b, c, dA, dB *tensor.Tensor }
	var products []product
	var geoms []tensor.ConvGeom
	addProduct := func(m, k, n int) {
		products = append(products, product{
			a: tensor.Randn(p.rng, 1, m, k), b: tensor.Randn(p.rng, 1, k, n), c: tensor.Randn(p.rng, 1, m, n),
			dA: tensor.New(m, k), dB: tensor.New(k, n),
		})
	}
	h, w, ch := arch.InputH, arch.InputW, arch.InputC
	for d := 0; d < arch.Depth; d++ {
		geoms = append(geoms, tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: h, InW: w, Channel: ch})
		addProduct(probeBatch*h*w, 9*ch, arch.Width)
		h, w, ch = h/2, w/2, arch.Width
	}
	addProduct(probeBatch, h*w*ch, arch.Classes)

	// Each metric is one pass over all the model's shapes, so the figure
	// is what one forward (or backward) spends in that kernel.
	allocs, _ := p.timed("tensor.matmul_us", 30, 10, nil, func() {
		for _, q := range products {
			tensor.MatMulInto(q.c, q.a, q.b)
		}
	})
	p.s.add("tensor.allocs_per_call", allocs/float64(len(products)))
	p.timed("tensor.matmul_nt_tn_us", 30, 10, nil, func() {
		for _, q := range products {
			tensor.MatMulNTInto(q.dA, q.c, q.b)
			tensor.MatMulTNInto(q.dB, q.a, q.c)
		}
	})

	xs := make([]*tensor.Tensor, len(geoms))
	cols := make([]*tensor.Tensor, len(geoms))
	for i, g := range geoms {
		xs[i] = tensor.Randn(p.rng, 1, probeBatch, g.InH, g.InW, g.Channel)
		cols[i] = tensor.Im2col(xs[i], g)
	}
	p.timed("tensor.im2col_us", 30, 10, nil, func() {
		for i, g := range geoms {
			tensor.Im2colInto(cols[i], xs[i], g)
		}
	})
	p.timed("tensor.col2im_us", 30, 10, nil, func() {
		for i, g := range geoms {
			tensor.Col2imInto(xs[i], cols[i], probeBatch, g)
		}
	})

	// Element-wise work at the largest activation: block 0's output.
	act := []int{probeBatch, arch.InputH, arch.InputW, arch.Width}
	x, y, dst := tensor.Randn(p.rng, 1, act...), tensor.Randn(p.rng, 1, act...), tensor.New(act...)
	p.timed("tensor.elementwise_us", 30, 10, nil, func() {
		tensor.AddInto(dst, x, y)
		tensor.MulInto(dst, x, y)
		tensor.ScaleInto(dst, x, 0.5)
	})
	p.timed("tensor.pool_get_put_ns", 30, 1000, nil, func() { tensor.Put(tensor.Get(act...)) })
	return nil
}

// probeModel times one model's forward and backward passes (autodiff and
// nn), its inference path and the optimizer step, on trained parameters.
func probeModel(p *prober) error {
	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	model := sys.Model
	idx := make([]int, probeBatch)
	for i := range idx {
		idx[i] = i
	}
	x, labels := p.e.parts[0].Batch(idx)
	oneHot := nn.OneHot(labels, model.Classes)
	var bound *nn.Bound
	var loss *ad.Value
	forward := func() {
		bound = model.Bind()
		loss = nn.CrossEntropy(bound.Forward(ad.Const(x)), oneHot)
	}
	p.timed("nn.forward_ms", 30, 1, nil, forward)
	p.timed("nn.fwd_bwd_ms", 30, 1, nil, func() {
		forward()
		ad.MustGrad(loss, bound.ParamVars())
	})
	var grads []*ad.Value
	allocs, _ := p.timed("autodiff.grad1_ms", 30, 1, forward, func() { grads = ad.MustGrad(loss, bound.ParamVars()) })
	p.s.add("autodiff.grad1_allocs", allocs)

	// The double backward of gradient matching: the distance between the
	// synthetic and the real gradient, differentiated with respect to the
	// synthetic pixels. Only that last Grad call is timed.
	syn := sys.Synthetic(0)
	class := syn.Y[0]
	xS, yS := syn.OfClass(class).All()
	xD, yD := p.e.parts[0].OfClass(class).All()
	var sVar, dist *ad.Value
	matchGraph := func() {
		bD := model.Bind()
		gReal := ad.MustGrad(nn.CrossEntropy(bD.Forward(ad.Const(xD)), nn.OneHot(yD, model.Classes)), bD.ParamVars())
		gD := make([]*ad.Value, len(gReal))
		for i, g := range gReal {
			gD[i] = ad.Const(g.Data)
		}
		sVar = ad.Var(xS)
		bS := model.Bind()
		gS := ad.MustGrad(nn.CrossEntropy(bS.Forward(sVar), nn.OneHot(yS, model.Classes)), bS.ParamVars())
		dist = distill.MatchDistance(gS, gD, p.e.cfg.Distill.Eps)
	}
	allocs, bytes := p.timed("autodiff.grad2_ms", 30, 1, matchGraph, func() { ad.MustGrad(dist, []*ad.Value{sVar}) })
	p.s.add("autodiff.grad2_allocs", allocs)
	p.s.add("autodiff.grad2_alloc_kb", bytes/1024)

	x8 := p.e.predictBatch()
	p.timed("nn.predict8_us", 30, 10, nil, func() { model.Predict(x8) })
	params := model.CloneParams()
	p.timed("nn.setparams_us", 30, 100, nil, func() { model.SetParams(params) })

	// A vanishing learning rate keeps the parameters where they are over
	// the repetitions; the step does the same arithmetic at any rate.
	gt := make([]*tensor.Tensor, len(grads))
	for i, g := range grads {
		gt[i] = g.Data
	}
	opt := optim.NewSGD(1e-12)
	p.timed("optim.sgd_step_us", 30, 100, nil, func() { opt.Step(model.ParamTensors(), gt) })
	return nil
}

// probeDistill times one gradient-matching step and the synthetic-set
// initialisation, then replays the training phase with a timing wrapper
// around the matcher's hook to split it into fl.local_step and
// distill.match_step.
func probeDistill(p *prober) error {
	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	e := p.e
	matcher := distill.NewMatcher(e.cfg.Distill, e.cohort, p.rng)
	ctx := fl.StepContext{ClientID: 0, Model: sys.Model, Client: e.parts[0], Rng: p.rng}
	allocs, bytes := p.timed("distill.match_step_ms", 20, 1, nil, func() { matcher.MatchStep(ctx) })
	p.s.add("distill.match_step_allocs", allocs)
	p.s.add("distill.match_step_alloc_kb", bytes/1024)
	p.timed("distill.init_synthetic_ms", 20, 1, nil, func() { distill.InitSynthetic(e.parts[0], e.cfg.Distill, p.rng) })

	model := nn.NewConvNet(e.cfg.Arch, p.rng)
	hook := distill.NewMatcher(e.cfg.Distill, e.cohort, p.rng).Hook()
	replay := p.tr.begin("train_replay", p.parent, 0)
	var inHook time.Duration
	edge := time.Now()
	res, err := fl.RunPhaseRegistry(model, e.cohort, fl.PhaseConfig{
		Rounds:     e.opTrainRounds,
		LocalSteps: e.cfg.Train.LocalSteps,
		BatchSize:  e.cfg.Train.BatchSize,
		LR:         e.cfg.Train.LR,
		Phase:      "train",
		Hook: func(ctx fl.StepContext) {
			t0 := time.Now()
			hook(ctx)
			t1 := time.Now()
			// The gap since the previous hook returned is the local step
			// (plus, at round ends, the aggregation; the median ignores it).
			p.s.add("fl.local_step_ms", ms(t0.Sub(edge)))
			p.tr.add("fl.local_step", edge, t0, replay, 0)
			p.tr.add("distill.match_step", t0, t1, replay, 0)
			inHook += t1.Sub(t0)
			edge = t1
		},
	}, p.rng)
	p.tr.finish(replay)
	if err != nil {
		return fmt.Errorf("train replay: %w", err)
	}
	p.s.add("distill.train_share_pct", 100*float64(inHook)/float64(res.WallTime))
	return nil
}

// probeFL times single FedAvg rounds: on the original shards (what
// retraining runs), on recovery-shaped and class-forget synthetic shards
// (what unlearning runs), through the two-worker pool, and the
// aggregation alone.
func probeFL(p *prober) error {
	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	e, model := p.e, sys.Model
	trained := model.CloneParams()
	reset := func() { model.SetParams(trained) }
	phase := func(pp core.PhaseParams, dir optim.Direction) fl.PhaseConfig {
		return fl.PhaseConfig{Rounds: 1, LocalSteps: pp.LocalSteps, BatchSize: pp.BatchSize, LR: pp.LR, Dir: dir}
	}
	var firstErr error
	note := func(_ fl.PhaseResult, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	real := phase(e.cfg.Train, optim.Descend)
	allocs, bytes := p.timed("fl.round_real_ms", 10, 1, reset, func() { note(fl.RunPhaseRegistry(model, e.cohort, real, p.rng)) })
	p.s.add("fl.round_real_allocs", allocs)
	p.s.add("fl.round_real_alloc_kb", bytes/1024)

	workers := real
	workers.Workers = 2
	factory := func() *nn.Model { return nn.NewConvNet(e.cfg.Arch, rand.New(rand.NewSource(1))) }
	//lint:allow ctxflow the driver is a binary outside cmd/: this is its root context, and nothing cancels a probe
	ctx := context.Background()
	p.timed("fl.round_workers2_ms", 10, 1, reset, func() {
		note(fl.RunPhaseConcurrentRegistry(ctx, model, factory, e.cohort, workers, p.rng))
	})

	recovery := make([]*data.Dataset, e.clients())
	forget := make([]*data.Dataset, e.clients())
	class := 3 % e.classes()
	for i := range recovery {
		if syn := sys.Synthetic(i); syn != nil {
			recovery[i] = distill.Augment(syn, e.parts[i], p.rng)
			forget[i] = syn.OfClass(class)
		}
	}
	p.timed("fl.round_syn_ms", 10, 1, reset, func() {
		note(fl.RunPhase(model, recovery, phase(e.cfg.Recover, optim.Descend), p.rng))
	})
	p.timed("fl.round_sga_ms", 10, 1, reset, func() {
		note(fl.RunPhase(model, forget, phase(e.cfg.Unlearn, optim.Ascend), p.rng))
	})

	agg := fl.NewStreamAggregator(trained)
	p.timed("fl.aggregate_us", 30, 10, nil, func() {
		agg.Reset()
		for i := 0; i < e.clients(); i++ {
			agg.Fold(trained, float64(e.parts[i].Len()))
		}
		agg.Finish()
	})
	return firstErr
}

// probeCore times the pipeline's operations one at a time, each on a
// freshly loaded system: the class-level unlearn with its stage split
// (the same step unlearn_class runs), the other request kinds, a mixed
// batch of four, relearning, and state save and load.
func probeCore(p *prober) error {
	e := p.e
	for i := 0; i < p.reps(12); i++ {
		stepUnlearnClass(e, i, p.s, p.tr, p.parent)
	}

	classReq := func(i int) core.Request { return core.Request{Kind: core.ClassLevel, Class: i % e.classes()} }
	clientReq := func(i int) core.Request { return core.Request{Kind: core.ClientLevel, Client: i % e.clients()} }
	sampleReq := func(i int) core.Request {
		cl := i % e.clients()
		return core.Request{Kind: core.SampleLevel, Client: cl, Samples: []int{e.sampleOf(cl, i%e.classes())}}
	}
	var firstErr error
	timeOp := func(name string, prep, fn func(*core.System) error) {
		_, t0, t1, err := e.timedOn(nil, prep, fn)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			return
		}
		p.s.add(name, ms(t1.Sub(t0)))
		p.tr.add(strings.TrimSuffix(name, "_ms"), t0, t1, p.parent, 0)
	}
	unlearn := func(r core.Request) func(*core.System) error {
		return func(sys *core.System) error { _, err := sys.Unlearn(r); return err }
	}
	for i := 0; i < p.reps(6); i++ {
		timeOp("core.unlearn_client_ms", nil, unlearn(clientReq(i)))
		timeOp("core.unlearn_sample_ms", nil, unlearn(sampleReq(i)))
		// One coalesced pass over four mixed requests: amortisation means
		// this should cost well under four single requests.
		batch := []core.Request{classReq(i), clientReq(i + 1), sampleReq(i + 2), classReq(i + 5)}
		timeOp("core.unlearn_batch4_ms", nil, func(sys *core.System) error {
			br, err := sys.UnlearnBatch(batch)
			if err == nil && len(br.Rejected) > 0 {
				err = fmt.Errorf("%d of %d requests rejected: %w", len(br.Rejected), len(batch), br.Rejected[0].Err)
			}
			return err
		})
		timeOp("core.relearn_ms", unlearn(classReq(i)), func(sys *core.System) error {
			_, err := sys.Relearn(classReq(i))
			return err
		})
	}

	// Heap cost of one Unlearn call alone; the statistics reads would
	// disturb a timed operation, so these calls are not timed.
	var m0, m1 runtime.MemStats
	n := p.reps(5)
	var allocs, bytesPerOp float64
	for i := 0; i < n; i++ {
		sys, err := e.freshSystem(nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		_, err = sys.Unlearn(classReq(i))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		allocs += float64(m1.Mallocs - m0.Mallocs)
		bytesPerOp += float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	p.s.add("core.unlearn_allocs", allocs/float64(n))
	p.s.add("core.unlearn_alloc_mb", bytesPerOp/float64(n)/(1<<20))

	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	p.timed("core.savestate_ms", 10, 1, buf.Reset, func() {
		if err := sys.SaveState(&buf); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	var blank *core.System
	p.timed("core.loadstate_ms", 10, 1, func() {
		if blank, err = core.NewSystem(e.cfg, e.cohort); err != nil && firstErr == nil {
			firstErr = err
		}
	}, func() {
		if err := blank.LoadState(bytes.NewReader(e.state)); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// probeServe runs a few serve_mixed epochs for the request-path series
// (ticket lifetime, HTTP overhead, burst, paced reads) and times the
// serving layer's own primitives.
func probeServe(p *prober) error {
	e := p.e
	before := p.s.failed
	for ep := 0; ep < p.reps(3); ep++ {
		stepServeEpoch(e, ep, p.s, p.tr, p.parent)
	}
	if p.s.failed > before {
		return fmt.Errorf("%d operations failed in the probe epochs", p.s.failed-before)
	}
	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	evaluator := serve.CohortEvaluator{Clients: e.cohort, Test: e.test}
	req := core.Request{Kind: core.ClassLevel, Class: 3 % e.classes()}
	p.timed("serve.eval_split_ms", 10, 1, nil, func() { evaluator.Split(sys.Model, req) })
	store := serve.NewSnapshotStore()
	p.timed("serve.publish_us", 30, 10, nil, func() { store.Publish(sys.Model.CloneParams()) })
	p.timed("serve.acquire_release_ns", 30, 1000, nil, func() { store.Acquire().Release() })
	q := serve.NewQueue(16)
	ticket := &serve.Ticket{}
	var qErr error
	p.timed("serve.queue_op_ns", 30, 1000, nil, func() {
		if err := q.Enqueue(ticket); err != nil {
			qErr = err
		}
		q.Wait()
	})
	return qErr
}

// probeMisc times what only set-up and untimed preparation use.
func probeMisc(p *prober) error {
	e := p.e
	sys, err := p.e.freshSystem(nil)
	if err != nil {
		return err
	}
	p.timed("eval.class_split_ms", 10, 1, nil, func() { eval.ClassSplit(sys.Model, e.test, 3%e.classes()) })
	p.timed("data.generate_ms", 10, 1, nil, func() { data.Generate(e.spec, e.seed) })
	cfg := e.bcfg
	cfg.Train.Rounds = 1
	var firstErr error
	p.timed("baselines.prepare_ms", 5, 1, nil, func() {
		m, err := baselines.NewRetrainOr(cfg, e.cohort)
		if err == nil {
			err = m.Prepare()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}
