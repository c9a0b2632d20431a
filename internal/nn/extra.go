package nn

import (
	"fmt"
	"math/rand"
	"sort"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// MaxPool downsamples NHWC maps by taking the maximum over Kernel×Kernel
// windows. The argmax mask is treated as a constant (standard subgradient
// convention), so gradients route to the winning positions only.
type MaxPool struct {
	Geom tensor.ConvGeom
}

// NewMaxPool creates a max-pooling layer for the given input geometry.
func NewMaxPool(g tensor.ConvGeom) *MaxPool {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	return &MaxPool{Geom: g}
}

// Name implements Layer.
func (p *MaxPool) Name() string { return "maxpool" }

// Params implements Layer.
func (p *MaxPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool) Forward(x *ad.Value, _ []*ad.Value) *ad.Value {
	b := x.Data.Dim(0)
	g := p.Geom
	k2 := g.Kernel * g.Kernel
	cols := ad.Im2col(x, g) // [B*OH*OW, K*K*C]
	rows := cols.Data.Dim(0)
	grouped := ad.Reshape(cols, rows, k2, g.Channel) // window-major

	// One-hot argmax mask per (row, channel), detached.
	mask := tensor.New(rows, k2, g.Channel)
	gd := grouped.Data.Data()
	md := mask.Data()
	for r := 0; r < rows; r++ {
		for c := 0; c < g.Channel; c++ {
			best, bestV := 0, gd[r*k2*g.Channel+c]
			for w := 1; w < k2; w++ {
				if v := gd[(r*k2+w)*g.Channel+c]; v > bestV {
					best, bestV = w, v
				}
			}
			md[(r*k2+best)*g.Channel+c] = 1
		}
	}
	picked := ad.SumAxes(ad.Mul(grouped, x.Arena().Const(mask)), 1) // [rows,1,C]
	return ad.Reshape(picked, b, g.OutH(), g.OutW(), g.Channel)
}

// Activation applies a fixed nonlinearity elementwise.
type Activation struct {
	Kind string // "relu", "sigmoid", "tanh"
}

// Name implements Layer.
func (a Activation) Name() string { return a.Kind }

// Params implements Layer.
func (Activation) Params() []*Param { return nil }

// Forward implements Layer.
func (a Activation) Forward(x *ad.Value, _ []*ad.Value) *ad.Value {
	switch a.Kind {
	case "relu":
		return ad.ReLU(x)
	case "sigmoid":
		return ad.Sigmoid(x)
	case "tanh":
		return ad.Tanh(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", a.Kind))
	}
}

// MLPConfig describes a fully connected classifier (used by ablations and
// as a light-weight alternative backbone).
type MLPConfig struct {
	// In is the flattened input feature count; InputShape documents the
	// pre-flatten sample shape for Model metadata.
	InputShape []int
	Hidden     []int
	Classes    int
	Activation string // default "relu"
}

// NewMLP builds a multilayer perceptron with He initialization.
func NewMLP(cfg MLPConfig, rng *rand.Rand) *Model {
	if len(cfg.InputShape) == 0 || cfg.Classes < 2 {
		panic(fmt.Sprintf("nn: invalid MLP config %+v", cfg))
	}
	act := cfg.Activation
	if act == "" {
		act = "relu"
	}
	in := 1
	for _, d := range cfg.InputShape {
		in *= d
	}
	layers := []Layer{Flatten{}}
	prev := in
	for i, h := range cfg.Hidden {
		layers = append(layers, NewDense(fmt.Sprintf("hidden%d", i), rng, prev, h), Activation{Kind: act})
		prev = h
	}
	layers = append(layers, NewDense("classifier", rng, prev, cfg.Classes))
	return NewModel(cfg.InputShape, cfg.Classes, layers...)
}

// L2Penalty returns λ·Σ‖W‖² over the bound parameter variables (at least
// one), for weight-decay regularized training objectives.
func L2Penalty(params []*ad.Value, lambda float64) *ad.Value {
	total := ad.SumAll(ad.Mul(params[0], params[0]))
	for _, p := range params[1:] {
		total = ad.Add(total, ad.SumAll(ad.Mul(p, p)))
	}
	return ad.Scale(total, lambda)
}

// TopKAccuracy returns the fraction of samples whose true label is among
// the k highest logits.
func TopKAccuracy(logits *tensor.Tensor, labels []int, k int) float64 {
	if len(labels) == 0 || k < 1 {
		return 0
	}
	if logits.Dims() != 2 || logits.Dim(0) != len(labels) {
		panic(fmt.Sprintf("nn: TopKAccuracy logits %s vs %d labels", logits.ShapeString(), len(labels)))
	}
	classes := logits.Dim(1)
	if k > classes {
		k = classes
	}
	hits := 0
	idx := make([]int, classes)
	for i, y := range labels {
		row := logits.Data()[i*classes : (i+1)*classes]
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
		for j := 0; j < k; j++ {
			if idx[j] == y {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(labels))
}
