package notary

import (
	"slices"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Trusted is the single-external-party realisation of the transaction
// manager: one process, trusted by all participants, that decides commit
// when every escrow reports prepared and abort when any customer asks first.
// It stands on the run's world: TrustedIn rewrites every field a run reads
// and keeps only the slices' storage.
type Trusted struct {
	run
	issued
	fault core.FaultSpec
	pids  [1]core.PID // the manager's, PIDs()

	prepared []string // the escrows that reported, a set
	decided  bool
	crashed  bool

	// certs[k] is the certificate for the decision of index k, issued at
	// most once per run and sent by pointer; issues[k] is the argument of
	// its issue event.
	certs  [2]MsgDecision
	issues [2]issueArg
}

// trustedIDs is every Trusted's IDs() and its certificates' Signers;
// read-only.
var trustedIDs = []string{core.ManagerID}

// TrustedIn makes w's single trusted manager the manager of the run of the
// scenario w has been reset for, registers it on w's network under
// core.ManagerID and returns it.
func TrustedIn(w *core.World) *Trusted {
	s := w.Scenario()
	t := &core.Standing[standing](w).trusted
	t.run = run{w: w, scn: s, kr: w.Keyring()}
	t.issued = issued{}
	t.pids[0] = w.ManagerPID()
	t.fault = w.FaultOf(t.pids[0])
	t.prepared = t.prepared[:0]
	t.decided, t.crashed = false, false
	t.addKey(t.pids[0], core.ManagerID)
	t.w.Net.Attach(t.pids[0], t)
	t.scheduleCrash(core.ManagerID, t.fault, trustedCrash, t)
	return t
}

//xchain:hotpath
func trustedCrash(x any) { x.(*Trusted).crashed = true }

// ID implements netsim.Node.
func (t *Trusted) ID() string { return core.ManagerID }

// IDs implements Manager.
func (t *Trusted) IDs() []string { return trustedIDs }

// PIDs implements Manager.
func (t *Trusted) PIDs() []core.PID { return t.pids[:] }

// Quorum implements Manager.
func (t *Trusted) Quorum() int { return 1 }

// Deliver implements netsim.Node.
//
//xchain:hotpath
func (t *Trusted) Deliver(_ core.PID, msg netsim.Message) {
	if t.crashed || t.fault.Silent {
		return
	}
	switch m := msg.(type) {
	case *MsgPrepared:
		if m.PaymentID != t.paymentID() || t.decided {
			return
		}
		if !slices.Contains(t.prepared, m.Escrow) {
			t.prepared = append(t.prepared, m.Escrow)
		}
		if len(t.prepared) >= t.scn.Topology.N {
			t.decide(commit)
		}
	case *MsgAbortRequest:
		if m.PaymentID != t.paymentID() || t.decided {
			return
		}
		t.decide(abort)
	}
}

// decide fixes the decision of index k (exactly once for an honest
// manager) and broadcasts the certificate. An equivocating Byzantine manager
// issues both certificates, which is exactly the behaviour the CC checker
// must catch when the manager is corrupt.
//
//xchain:hotpath
func (t *Trusted) decide(k int) {
	if t.decided && !t.fault.Equivocate {
		return
	}
	t.decided = true
	t.issue(k)
	if t.fault.Equivocate {
		t.issue(1 - k)
	}
}

// issueArg is the argument of one scheduled issue: t's certificate for
// the decision of index k.
type issueArg struct {
	t *Trusted
	k int
}

//xchain:hotpath
func (t *Trusted) issue(k int) {
	delay := sim.Time(t.w.Eng.Rand().Int63n(int64(t.scn.Timing.MaxProcessing + 1)))
	t.issues[k] = issueArg{t: t, k: k}
	t.w.Eng.ScheduleArgIn(delay+t.fault.DelayActions, "manager:decide", trustedIssue, &t.issues[k])
}

// trustedIssue is the scheduled action of issue: sign the certificate and
// send it to every participant.
//
//xchain:hotpath
func trustedIssue(x any) {
	a := x.(*issueArg)
	t, m := a.t, &a.t.certs[a.k]
	if t.crashed {
		return
	}
	m.Cert = sig.DecisionCert{
		PaymentID: t.paymentID(), Decision: sig.Decision(a.k + 1), Manager: core.ManagerID, IssuedAt: t.w.Eng.Now(),
		Quorum: 1, Signers: trustedIDs, Sigs: m.Cert.Sigs,
	}
	m.Cert.Sign(t.kr, t.pids[:])
	t.issued[a.k] = true
	if t.w.Trace.Recording() {
		t.w.Trace.Add(t.w.Eng.Now(), trace.KindDecision, core.ManagerID, "", m.Cert.Describe())
	}
	if t.fault.WithholdCertificate {
		return // decided internally but never tells anyone
	}
	for pid := range core.PID(len(t.w.Participants())) {
		t.w.Net.Post(t.pids[0], pid, m)
	}
}
