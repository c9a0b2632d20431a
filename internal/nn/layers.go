package nn

import (
	"math/rand"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// Conv2D is a 2-D convolution on NHWC feature maps. autodiff.Conv picks
// its graph: one direct kernel for a forward that nothing differentiates,
// one node with direct-kernel gradients inside a first-order training
// graph (LossGrads), and otherwise im2col followed by a matrix multiply,
// so the second-order derivatives of gradient matching reduce to verified
// linear primitives. All three compute the same floats.
type Conv2D struct {
	Geom    tensor.ConvGeom
	Filters int
	weight  *Param // [K*K*C, F]
	bias    *Param // [F]
}

// NewConv2D creates a convolution for the given geometry and filter count.
func NewConv2D(name string, rng *rand.Rand, g tensor.ConvGeom, filters int) *Conv2D {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	fanIn := g.Kernel * g.Kernel * g.Channel
	return &Conv2D{
		Geom:    g,
		Filters: filters,
		weight:  &Param{Name: name + ".weight", Data: heInit(rng, fanIn, fanIn, filters)},
		bias:    &Param{Name: name + ".bias", Data: tensor.New(filters)},
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Forward implements Layer. x has shape [B, H, W, C]; the output has shape
// [B, OH, OW, F].
func (c *Conv2D) Forward(x *ad.Value, ps []*ad.Value) *ad.Value {
	return ad.Conv(x, ps[0], ps[1], c.Geom)
}

// InstanceNorm normalizes each channel of each sample over its spatial
// extent, with optional learned scale and shift, as in the paper's ConvNet.
type InstanceNorm struct {
	Channels int
	Eps      float64
	gamma    *Param // [C]
	beta     *Param // [C]
}

// NewInstanceNorm creates an affine instance-normalization layer.
func NewInstanceNorm(name string, channels int) *InstanceNorm {
	return &InstanceNorm{
		Channels: channels,
		Eps:      1e-5,
		gamma:    &Param{Name: name + ".gamma", Data: tensor.Ones(channels)},
		beta:     &Param{Name: name + ".beta", Data: tensor.New(channels)},
	}
}

// Params implements Layer.
func (n *InstanceNorm) Params() []*Param { return []*Param{n.gamma, n.beta} }

// Forward implements Layer. x has shape [B, H, W, C].
func (n *InstanceNorm) Forward(x *ad.Value, ps []*ad.Value) *ad.Value {
	return ad.InstanceNorm(x, ps[0], ps[1], n.Eps)
}

// ReLULayer applies the rectifier elementwise.
type ReLULayer struct{}

// Params implements Layer.
func (ReLULayer) Params() []*Param { return nil }

// Forward implements Layer.
func (ReLULayer) Forward(x *ad.Value, _ []*ad.Value) *ad.Value { return ad.ReLU(x) }

// AvgPool downsamples NHWC maps by averaging over Kernel×Kernel windows,
// through the autodiff.AvgPool primitive: one pass with no patch matrix,
// whose gradients (of any order) are those of the im2col + reduction it
// computes.
type AvgPool struct {
	Geom tensor.ConvGeom
}

// NewAvgPool creates a pooling layer for the given input geometry; Kernel
// and Stride come from g.
func NewAvgPool(g tensor.ConvGeom) *AvgPool {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	return &AvgPool{Geom: g}
}

// Params implements Layer.
func (p *AvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *AvgPool) Forward(x *ad.Value, _ []*ad.Value) *ad.Value { return ad.AvgPool(x, p.Geom) }

// Flatten reshapes [B, H, W, C] (or any rank ≥ 2) to [B, rest].
type Flatten struct{}

// Params implements Layer.
func (Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (Flatten) Forward(x *ad.Value, _ []*ad.Value) *ad.Value {
	rest := 1
	for i := 1; i < x.Data.Dims(); i++ {
		rest *= x.Data.Dim(i)
	}
	return ad.Reshape(x, x.Data.Dim(0), rest)
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	weight  *Param // [In, Out]
	bias    *Param // [Out]
}

// NewDense creates a dense layer with He initialization.
func NewDense(name string, rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		In:     in,
		Out:    out,
		weight: &Param{Name: name + ".weight", Data: heInit(rng, in, in, out)},
		bias:   &Param{Name: name + ".bias", Data: tensor.New(out)},
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Forward implements Layer. x has shape [B, In].
func (d *Dense) Forward(x *ad.Value, ps []*ad.Value) *ad.Value {
	return ad.AddRowVec(ad.MatMul(x, ps[0]), ps[1])
}
