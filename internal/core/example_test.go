package core_test

import (
	"fmt"
	"log"
	"math/rand"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// Example trains a 4-client federation while distilling synthetic data
// alongside it, unlearns a class and then a client from the synthetic
// data alone, and relearns the class.
func Example() {
	// An IID split of an MNIST-like task: 8×8 images, 20 training
	// samples per class.
	train, _ := data.Generate(data.MNISTLike(8, 20), 1)
	clients := data.PartitionIID(train, 4, rand.New(rand.NewSource(2)))

	// The paper's ConvNet. Scale s=10 (the default is 100) keeps a
	// couple of synthetic samples per class on these tiny shards.
	arch := nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 10, Width: 8, Depth: 2}
	cfg := core.DefaultConfig(arch)
	cfg.Distill.Scale = 10
	sys, err := core.NewSystem(cfg, data.NewCohort(clients))
	if err != nil {
		log.Fatal(err)
	}

	// FedAvg training with in-situ distillation.
	if _, err := sys.Train(); err != nil {
		log.Fatal(err)
	}
	synthetic := 0
	for i := range clients {
		synthetic += sys.Synthetic(i).Len()
	}
	fmt.Printf("distilled %d training samples into %d synthetic samples\n", train.Len(), synthetic)

	// Gradient ascent on the forget set's synthetic samples, then
	// recovery on the rest.
	class7 := core.Request{Kind: core.ClassLevel, Class: 7}
	rep, err := sys.Unlearn(class7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unlearned class 7 from %d synthetic samples\n", rep.Unlearn.DataSize)
	rep, err = sys.Unlearn(core.Request{Kind: core.ClientLevel, Client: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unlearned client 2 from %d synthetic samples\n", rep.Unlearn.DataSize)

	// A revoked request is relearned from the same synthetic samples.
	if _, err := sys.Relearn(class7); err != nil {
		log.Fatal(err)
	}
	fmt.Println("relearned class 7")
	// Output:
	// distilled 200 training samples into 40 synthetic samples
	// unlearned class 7 from 4 synthetic samples
	// unlearned client 2 from 9 synthetic samples
	// relearned class 7
}
