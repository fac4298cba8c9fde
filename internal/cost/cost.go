// Package cost turns resource-usage integrals into money. The paper's
// motivation is economic — maintainers "pay for each function invocation
// instead of the whole infrastructure" (§I) — so a faithful release needs
// the bill, not just core-seconds. The model mirrors public-cloud
// pricing: IaaS bills rented VM time (cores + memory, whether used or
// not); serverless bills GB-seconds of container residency plus a
// per-invocation fee.
package cost

import (
	"fmt"

	"amoeba/internal/core"
	"amoeba/internal/metrics"
)

// Pricing holds the tariff. Defaults are in the ballpark of 2020-era
// public list prices, normalised to seconds; absolute values matter less
// than their ratio, which is what drives the crossover load between the
// two deployments (the Villamizar-style comparison the paper cites [27]).
type Pricing struct {
	// IaaSCoreSecond is the price of one rented core for one second
	// (bundled VM price attributed to cores).
	IaaSCoreSecond float64
	// IaaSMemGBSecond is the price of one rented GB for one second.
	IaaSMemGBSecond float64
	// ServerlessGBSecond is the FaaS compute price per GB-second of
	// container residency.
	ServerlessGBSecond float64
	// ServerlessInvocation is the flat per-request fee.
	ServerlessInvocation float64
}

// DefaultPricing returns a representative public-cloud tariff.
func DefaultPricing() Pricing {
	return Pricing{
		IaaSCoreSecond:       0.04 / 3600,    // ~$0.04 per core-hour
		IaaSMemGBSecond:      0.005 / 3600,   // ~$0.005 per GB-hour
		ServerlessGBSecond:   0.0000166667,   // classic $/GB-s list price
		ServerlessInvocation: 0.20 / 1000000, // $0.20 per million requests
	}
}

// Validate reports tariff errors.
func (p Pricing) Validate() error {
	for name, v := range map[string]float64{
		"IaaSCoreSecond": p.IaaSCoreSecond, "IaaSMemGBSecond": p.IaaSMemGBSecond,
		"ServerlessGBSecond": p.ServerlessGBSecond, "ServerlessInvocation": p.ServerlessInvocation,
	} {
		if v < 0 {
			return fmt.Errorf("cost: negative price %s", name)
		}
	}
	if p.IaaSCoreSecond == 0 && p.ServerlessGBSecond == 0 {
		return fmt.Errorf("cost: tariff prices nothing")
	}
	return nil
}

// Bill is the itemised cost of one service over one run.
type Bill struct {
	Service string
	// IaaS components: rented capacity integrated over VM lifetime.
	IaaSCompute float64
	IaaSMemory  float64
	// Serverless components.
	ServerlessCompute     float64 // GB-seconds of container residency
	ServerlessInvocations float64 // per-request fees
}

// Total returns the bill's sum.
func (b Bill) Total() float64 {
	return b.IaaSCompute + b.IaaSMemory + b.ServerlessCompute + b.ServerlessInvocations
}

// ForService prices one service's result under the tariff.
// It panics if the pricing fails validation or sr is nil.
func ForService(p Pricing, sr *core.ServiceResult) Bill {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if sr == nil {
		panic("cost: nil service result")
	}
	b := Bill{Service: sr.Profile.Name}
	b.IaaSCompute = sr.IaaSUsage.CPU * p.IaaSCoreSecond
	b.IaaSMemory = sr.IaaSUsage.MemMB / 1024 * p.IaaSMemGBSecond
	b.ServerlessCompute = sr.ServerlessUsage.MemMB / 1024 * p.ServerlessGBSecond
	b.ServerlessInvocations = float64(sr.Collector.BackendCount(metrics.BackendServerless)) * p.ServerlessInvocation
	return b
}
