// Online training: publish consecutive incremental checkpoints so an
// inference fleet can keep a serving model fresh (§5.1 of the paper:
// "consecutive increment checkpoints are useful for use cases such as
// online training, where checkpoints are directly applied to an
// already-trained model in inference").
//
// The example runs a trainer publishing consecutive increments and an
// "inference replica" that applies each increment as it lands, then
// compares the replica's predictions against the live trainer.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/objstore"
	"repro/internal/quant"
)

func main() {
	ctx := context.Background()

	mcfg := model.DefaultConfig()
	mcfg.Tables = []embedding.TableSpec{
		{Rows: 2048, Dim: 16}, {Rows: 4096, Dim: 16},
	}
	trainerModel, err := model.New(mcfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	spec := data.DefaultSpec()
	spec.TableRows = []int{2048, 4096}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Shared store between the trainer and the inference replica.
	store := objstore.NewMemStore(objstore.MemConfig{})
	coord, err := ckpt.NewCoordinator(ctx, ckpt.CoordinatorConfig{
		Config: ckpt.Config{
			JobID:  "online",
			Store:  store,
			Policy: ckpt.PolicyConsecutive,
			// 8-bit quantization: online models refresh often and restore
			// often, so the conservative bit-width applies (§6.2.1).
			Quant: quant.Params{Method: quant.MethodAsymmetric, Bits: 8},
		},
		Shards: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	rest, err := ckpt.NewRestorer("online", store)
	if err != nil {
		log.Fatal(err)
	}

	// The inference replica starts from the same initial weights (a
	// deployed model) and applies published increments.
	replica, err := model.New(mcfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	const batch = 64
	fmt.Println("publishing consecutive increments every 3 batches:")
	for interval := 0; interval < 6; interval++ {
		for b := 0; b < 3; b++ {
			trainerModel.TrainBatch(gen.NextBatch(batch))
		}
		snap, err := ckpt.TakeSnapshot(trainerModel, uint64((interval+1)*3),
			data.ReaderState{NextSample: gen.Pos(), BatchSize: batch})
		if err != nil {
			log.Fatal(err)
		}
		man, err := coord.Write(ctx, snap)
		if err != nil {
			log.Fatal(err)
		}

		// The replica loads the newly published checkpoint. Restore
		// resolves its whole chain and applies it newest link first, each
		// row once; the publish itself stored only this interval's rows
		// (a serving replica applies just the new links: internal/serve).
		if _, err := rest.Restore(ctx, man.ID, replica); err != nil {
			log.Fatal(err)
		}

		stored := 0
		for _, t := range man.Tables {
			stored += t.StoredRows
		}
		drift := predictionDrift(trainerModel, replica, gen)
		fmt.Printf("  publish %d: %-11s %5d rows %8d bytes; replica drift %.5f\n",
			man.ID, man.Kind, stored, man.PayloadBytes, drift)
	}

	fmt.Println("\nreplica freshness: drift stays at quantization noise level —")
	fmt.Println("the serving model tracks the trainer without full redeploys.")
	u := store.Usage()
	fmt.Printf("store: %d objects, %d bytes written total\n", u.Objects, u.BytesWritten)
}

// predictionDrift compares trainer and replica logits on a held-out set.
func predictionDrift(a, b *model.DLRM, gen *data.Generator) float64 {
	var sum float64
	const n = 64
	for i := uint64(0); i < n; i++ {
		s := gen.At(1<<40 + i)
		sum += math.Abs(float64(a.Forward(&s) - b.Forward(&s)))
	}
	return sum / n
}
