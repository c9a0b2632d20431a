package tensor

import "testing"

// The literal expectations pin the panic formats a reader greps for when
// a kernel call panics.
func TestShapeErrFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{shapeErr("AddInto", []int{2, 3}, []int{3, 2}),
			"tensor: AddInto shape mismatch [2 3] vs [3 2]"},
		{dstShapeErr("MatMulInto", []int{2, 2}, []int{2, 5}),
			"tensor: MatMulInto destination [2 2] cannot hold result [2 5]"},
		{bcastRankErr([]int{3}, []int{4, 5}),
			"tensor: broadcast rank mismatch [3] vs [4 5]"},
		{bcastShapeErr([]int{1, 3}, []int{4, 5}),
			"tensor: cannot broadcast [1 3] against [4 5]"},
		{matMulRankErr([]int{6}, []int{2, 3}),
			"tensor: MatMul requires matrices, got [6] and [2 3]"},
		{matMulDimErr([]int{2, 3}, []int{4, 5}, false, true),
			"tensor: MatMul inner dims differ: [2 3] x [4 5] (ta=false tb=true)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("message = %q, want %q", c.got, c.want)
		}
	}
}

func TestMustSameShapePanicMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if r != "tensor: AxpyInPlace shape mismatch [2 3] vs [3 2]" {
			t.Errorf("panic = %v", r)
		}
	}()
	New(2, 3).AxpyInPlace(1, New(3, 2))
}
