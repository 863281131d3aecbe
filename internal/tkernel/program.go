package tkernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// This file is the program IR: task and handler bodies expressed as a flat
// list of operations instead of a Go closure. The kernel compiles a program
// to a resumable machine driven inline by the scheduler loop (progMachine):
// every service call is re-expressed through the Step* primitives and the
// split xxxBody halves of the services, traversing the same kernel
// bookkeeping in the same order as the public call from a closure body.
// Execution time enters a program only through Work and Access ops, which
// the machine steps with StepConsume, so a body never parks inside Go code.

// opKind discriminates program operations.
type opKind uint8

const (
	opAtom opKind = iota // run an instantaneous side effect
	opWork               // consume time/energy in ctx (Work, Access charges)
	opSvc                // issue one kernel service call
	opJump               // unconditional branch
	opBr                 // conditional branch
	opExit               // end the body (the closure's return)
)

// progOp is one program operation. A service op's try runs the split body
// of the service and may hand back an armed wait for the machine's
// StepBlock to complete.
type progOp struct {
	kind opKind
	name string // service name / work note

	run  func()                           // opAtom
	cost core.Cost                        // opWork
	ctx  trace.Context                    // opWork
	try  func(k *Kernel) (ER, *armedWait) // opSvc
	post func(ER) ER                      // opSvc, optional code remap
	er   *ER                              // opSvc, optional result out

	cond  func() bool // opBr
	label string      // opJump/opBr target label (resolved by finalize)
	to    int         // resolved target pc
}

// Program is a compiled T-THREAD body under construction: append ops with
// the builder methods, then hand it to CreTskProg / CreCycProg / CreAlmProg
// / DefIntProg. Build each task or handler its own Program (out-pointers
// and frame variables are per-instance state).
type Program struct {
	name      string
	ctx       trace.Context // context class of Work ops
	ops       []progOp
	labels    map[string]int
	finalized bool
}

// NewProgram starts a task-body program: Work ops are charged in task
// context.
func (k *Kernel) NewProgram(name string) *Program {
	return &Program{name: name, ctx: trace.CtxTask, labels: map[string]int{}}
}

// NewHandlerProgram starts a handler-body program: Work ops are charged in
// handler context.
func (k *Kernel) NewHandlerProgram(name string) *Program {
	return &Program{name: name, ctx: trace.CtxHandler, labels: map[string]int{}}
}

// finalize resolves label targets; idempotent.
func (p *Program) finalize() {
	if p.finalized {
		return
	}
	p.finalized = true
	for i := range p.ops {
		op := &p.ops[i]
		if op.kind != opJump && op.kind != opBr {
			continue
		}
		to, ok := p.labels[op.label]
		if !ok {
			panic(fmt.Sprintf("tkernel: program %q: undefined label %q", p.name, op.label))
		}
		op.to = to
	}
}

func (p *Program) add(op progOp) *Program {
	if p.finalized {
		panic(fmt.Sprintf("tkernel: program %q: modified after finalize", p.name))
	}
	p.ops = append(p.ops, op)
	return p
}

// Atom appends an instantaneous side effect (plain Go between service
// calls: state updates, condition latching). The closure must not consume
// execution time: BFM accesses belong in Access ops.
func (p *Program) Atom(fn func()) *Program {
	return p.add(progOp{kind: opAtom, run: fn})
}

// Access appends one bus-functional-model handshake as data: the access
// first charges its cycle budget c in the BFM trace context under note,
// stepped like a Work op (a preemption point), then runs effect, the
// uncharged half of the access (a port write, a serial send). Values the
// effect depends on that other threads may change meanwhile must be
// latched by an Atom before the Access, as the charging call's argument
// would be.
func (p *Program) Access(c core.Cost, note string, effect func()) *Program {
	p.add(progOp{kind: opWork, name: note, cost: c, ctx: trace.CtxBFM})
	return p.Atom(effect)
}

// Work appends an application execution-time/energy annotation (k.Work in
// task programs, ctx.Work in handler programs).
func (p *Program) Work(c core.Cost, note string) *Program {
	return p.add(progOp{kind: opWork, name: note, cost: c, ctx: p.ctx})
}

// Label marks the next op as a branch target.
func (p *Program) Label(name string) *Program {
	p.labels[name] = len(p.ops)
	return p
}

// Jump appends an unconditional branch to a label.
func (p *Program) Jump(label string) *Program {
	return p.add(progOp{kind: opJump, label: label})
}

// Br appends a conditional branch: cond is evaluated when the op executes.
func (p *Program) Br(cond func() bool, label string) *Program {
	return p.add(progOp{kind: opBr, cond: cond, label: label})
}

// Exit appends an explicit body end (the closure's early return).
func (p *Program) Exit() *Program {
	return p.add(progOp{kind: opExit})
}

// svc appends a service op.
func (p *Program) svc(name string, try func(k *Kernel) (ER, *armedWait), post func(ER) ER, er *ER) *Program {
	return p.add(progOp{kind: opSvc, name: name, try: try, post: post, er: er})
}

// --- service ops -----------------------------------------------------------
//
// ID arguments are pointers so a program can reference objects created
// after the program is built (including an op arming the handler's own
// alarm); value arguments that vary per iteration come in through pointers
// too. The optional er out-pointer receives the resolved return code.

// SlpTsk appends tk_slp_tsk.
func (p *Program) SlpTsk(tmout TMO, er *ER) *Program {
	return p.svc("tk_slp_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.slpTskBody(tmout) },
		nil, er)
}

// DlyTsk appends tk_dly_tsk.
func (p *Program) DlyTsk(d sysc.Time, er *ER) *Program {
	return p.svc("tk_dly_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.dlyTskBody(d) },
		dlyTskPost, er)
}

// WupTsk appends tk_wup_tsk.
func (p *Program) WupTsk(id *ID, er *ER) *Program {
	return p.svc("tk_wup_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.wupTskBody(*id), nil },
		nil, er)
}

// RotRdq appends tk_rot_rdq.
func (p *Program) RotRdq(priority int, er *ER) *Program {
	return p.svc("tk_rot_rdq",
		func(k *Kernel) (ER, *armedWait) { return k.rotRdqBody(priority), nil },
		nil, er)
}

// SigSem appends tk_sig_sem.
func (p *Program) SigSem(id *ID, cnt int, er *ER) *Program {
	return p.svc("tk_sig_sem",
		func(k *Kernel) (ER, *armedWait) { return k.sigSemBody(*id, cnt), nil },
		nil, er)
}

// WaiSem appends tk_wai_sem.
func (p *Program) WaiSem(id *ID, cnt int, tmout TMO, er *ER) *Program {
	return p.svc("tk_wai_sem",
		func(k *Kernel) (ER, *armedWait) { return k.waiSemBody(*id, cnt, tmout) },
		nil, er)
}

// SetFlg appends tk_set_flg.
func (p *Program) SetFlg(id *ID, setptn uint32, er *ER) *Program {
	return p.svc("tk_set_flg",
		func(k *Kernel) (ER, *armedWait) { return k.setFlgBody(*id, setptn), nil },
		nil, er)
}

// WaiFlg appends tk_wai_flg; the release pattern is delivered through ptn.
func (p *Program) WaiFlg(id *ID, waiptn uint32, mode FlagMode, tmout TMO, ptn *uint32, er *ER) *Program {
	return p.svc("tk_wai_flg",
		func(k *Kernel) (ER, *armedWait) {
			*ptn = 0
			return k.waiFlgBody(*id, waiptn, mode, tmout, ptn)
		}, nil, er)
}

// SndMbx appends tk_snd_mbx; the message is read from msg when the op runs.
func (p *Program) SndMbx(id *ID, msg **Message, er *ER) *Program {
	return p.svc("tk_snd_mbx",
		func(k *Kernel) (ER, *armedWait) { return k.sndMbxBody(*id, *msg), nil },
		nil, er)
}

// RcvMbx appends tk_rcv_mbx; the message is delivered through msg.
func (p *Program) RcvMbx(id *ID, tmout TMO, msg **Message, er *ER) *Program {
	return p.svc("tk_rcv_mbx",
		func(k *Kernel) (ER, *armedWait) {
			*msg = nil
			return k.rcvMbxBody(*id, tmout, msg)
		}, nil, er)
}

// SndMbf appends tk_snd_mbf; the message is read from msg when the op runs.
func (p *Program) SndMbf(id *ID, msg *[]byte, tmout TMO, er *ER) *Program {
	return p.svc("tk_snd_mbf",
		func(k *Kernel) (ER, *armedWait) { return k.sndMbfBody(*id, *msg, tmout) },
		nil, er)
}

// RcvMbf appends tk_rcv_mbf; the message is delivered through msg.
func (p *Program) RcvMbf(id *ID, tmout TMO, msg *[]byte, er *ER) *Program {
	return p.svc("tk_rcv_mbf",
		func(k *Kernel) (ER, *armedWait) {
			*msg = nil
			return k.rcvMbfBody(*id, tmout, msg)
		}, nil, er)
}

// GetMpf appends tk_get_mpf; the block is delivered through blk.
func (p *Program) GetMpf(id *ID, tmout TMO, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_get_mpf",
		func(k *Kernel) (ER, *armedWait) {
			*blk = nil
			return k.getMpfBody(*id, tmout, blk)
		}, nil, er)
}

// RelMpf appends tk_rel_mpf; the block is read from blk when the op runs.
func (p *Program) RelMpf(id *ID, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_rel_mpf",
		func(k *Kernel) (ER, *armedWait) { return k.relMpfBody(*id, *blk), nil },
		nil, er)
}

// GetMpl appends tk_get_mpl; the block is delivered through blk.
func (p *Program) GetMpl(id *ID, size int, tmout TMO, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_get_mpl",
		func(k *Kernel) (ER, *armedWait) {
			*blk = nil
			return k.getMplBody(*id, size, tmout, blk)
		}, nil, er)
}

// RelMpl appends tk_rel_mpl; the block is read from blk when the op runs.
func (p *Program) RelMpl(id *ID, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_rel_mpl",
		func(k *Kernel) (ER, *armedWait) { return k.relMplBody(*id, *blk), nil },
		nil, er)
}

// LocMtx appends tk_loc_mtx.
func (p *Program) LocMtx(id *ID, tmout TMO, er *ER) *Program {
	return p.svc("tk_loc_mtx",
		func(k *Kernel) (ER, *armedWait) { return k.locMtxBody(*id, tmout) },
		nil, er)
}

// UnlMtx appends tk_unl_mtx.
func (p *Program) UnlMtx(id *ID, er *ER) *Program {
	return p.svc("tk_unl_mtx",
		func(k *Kernel) (ER, *armedWait) { return k.unlMtxBody(*id), nil },
		nil, er)
}

// StaAlm appends tk_sta_alm (the alarm re-arm pattern: id may point at the
// alarm's own ID, assigned after the program is built).
func (p *Program) StaAlm(id *ID, d sysc.Time, er *ER) *Program {
	return p.svc("tk_sta_alm",
		func(k *Kernel) (ER, *armedWait) { return k.staAlmBody(*id, d), nil },
		nil, er)
}

// --- compiled machine ------------------------------------------------------

// svcPhase tracks where inside one service op a machine is parked.
type svcPhase uint8

const (
	spEnter   svcPhase = iota // AwaitCPU before the dispatch lock
	spConsume                 // service-cost Consume, then the call body
	spBlock                   // parked on an armed wait
)

// progMachine drives a Program as a resumable state machine
// (core.CompiledBody). Each service op is re-expressed as the exact phase
// sequence of the public service called from a closure body: StepAwaitCPU
// / LockDispatch / SvcEnter / StepConsume (enterSvc), the split body, then
// SvcExit / UnlockDispatch (exitSvc) — with StepBlock replacing finish's
// BlockCurrent when the body armed a wait.
type progMachine struct {
	k    *Kernel
	p    *Program
	task *Task // owning task; nil for handler machines

	pc int
	sp svcPhase
	aw *armedWait
}

// Step implements core.CompiledBody.
func (m *progMachine) Step(t *core.TThread) core.BodyStep {
	k := m.k
	for {
		if m.pc >= len(m.p.ops) {
			return m.done(core.BodyDone)
		}
		op := &m.p.ops[m.pc]
		switch op.kind {
		case opAtom:
			op.run()
			m.pc++
		case opWork:
			switch t.StepConsume(op.cost, op.ctx, op.name) {
			case core.StepWait:
				return core.BodyWait
			case core.StepReset:
				return m.done(core.BodyReset)
			}
			m.pc++
		case opJump:
			m.pc = op.to
		case opBr:
			if op.cond() {
				m.pc = op.to
			} else {
				m.pc++
			}
		case opExit:
			return m.done(core.BodyDone)
		case opSvc:
			switch m.sp {
			case spEnter:
				switch t.StepAwaitCPU() {
				case core.StepWait:
					return core.BodyWait
				case core.StepReset:
					return m.done(core.BodyReset)
				}
				k.api.LockDispatch()
				if k.bus.Wants(event.KindSvcEnter) {
					k.bus.Publish(event.Event{Kind: event.KindSvcEnter,
						Time: k.sim.Now(), Thread: t.Name(), Obj: op.name})
				}
				m.sp = spConsume
			case spConsume:
				switch t.StepConsume(k.cfg.Costs.Service, trace.CtxService, op.name) {
				case core.StepWait:
					return core.BodyWait
				case core.StepReset:
					// A closure body's deferred exitSvc runs during the
					// reset unwind with the zero-value named er.
					m.svcExit(t, op.name, EOK)
					k.api.UnlockDispatch()
					return m.done(core.BodyReset)
				}
				er, aw := op.try(k)
				if aw == nil {
					m.svcDone(t, op, er)
					continue
				}
				m.aw = aw
				k.api.UnlockDispatch()
				m.sp = spBlock
			case spBlock:
				st, err := t.StepBlock(m.aw.obj)
				switch st {
				case core.StepWait:
					return core.BodyWait
				case core.StepReset:
					// A closure body's unwind through a parked service is the
					// latent unmatched-UnlockDispatch path; the machine just
					// rewinds (the dispatch lock is not held while parked).
					return m.done(core.BodyReset)
				}
				k.api.LockDispatch()
				er := k.endSleep(m.aw.task, err)
				m.aw = nil
				m.svcDone(t, op, er)
			}
		}
	}
}

// svcDone finishes a service op under the dispatch lock: remap, publish the
// exit event, deliver the code, unlock, advance.
func (m *progMachine) svcDone(t *core.TThread, op *progOp, er ER) {
	if op.post != nil {
		er = op.post(er)
	}
	m.svcExit(t, op.name, er)
	if op.er != nil {
		*op.er = er
	}
	m.k.api.UnlockDispatch()
	m.sp = spEnter
	m.pc++
}

// svcExit publishes the service exit event (exitSvc's publish half).
func (m *progMachine) svcExit(t *core.TThread, name string, er ER) {
	k := m.k
	if k.bus.Wants(event.KindSvcExit) {
		k.bus.Publish(event.Event{Kind: event.KindSvcExit,
			Time: k.sim.Now(), Thread: t.Name(), Obj: name, Code: int(er)})
	}
}

// done rewinds the machine for the next activation. Task machines release
// still-held mutexes first, mirroring a closure task body's deferred
// releaseOwnedMutexes (which runs on normal return and during the reset
// unwind alike).
func (m *progMachine) done(st core.BodyStep) core.BodyStep {
	m.pc = 0
	m.sp = spEnter
	m.aw = nil
	if m.task != nil {
		m.k.releaseOwnedMutexes(m.task)
	}
	return st
}

// --- creation --------------------------------------------------------------

// CreTskProg creates a task whose body is a program (tk_cre_tsk), compiled
// to a machine driven inline by the scheduler loop.
func (k *Kernel) CreTskProg(name string, priority int, prog *Program) (_ ID, er ER) {
	k.enterSvc("tk_cre_tsk")
	defer k.exitSvc("tk_cre_tsk", &er)
	if priority < 1 || priority > k.cfg.MaxPriority {
		return 0, EPAR
	}
	prog.finalize()
	k.nextTask++
	id := k.nextTask
	task := &Task{id: id, k: k, name: name}
	task.tt = k.api.CreateThreadCompiled(name, core.KindTask, priority,
		&progMachine{k: k, p: prog, task: task})
	task.tt.SetExinf(task)
	k.tasks[id] = task
	return id, EOK
}

// newHandlerThread registers a handler-level T-THREAD running a compiled
// program.
func (k *Kernel) newHandlerThread(name string, kind core.Kind, prog *Program) *core.TThread {
	prog.finalize()
	return k.api.CreateThreadCompiled(name, kind, 0, &progMachine{k: k, p: prog})
}

// CreCycProg creates a cyclic handler whose body is a program (tk_cre_cyc).
func (k *Kernel) CreCycProg(name string, interval, phase sysc.Time, prog *Program) (_ ID, er ER) {
	k.enterSvc("tk_cre_cyc")
	defer k.exitSvc("tk_cre_cyc", &er)
	if interval <= 0 || phase < 0 {
		return 0, EPAR
	}
	k.nextCyc++
	id := k.nextCyc
	c := &CyclicHandler{id: id, name: name, interval: interval, phase: phase, k: k}
	c.tt = k.newHandlerThread(name, core.KindCyclicHandler, prog)
	k.cycs[id] = c
	return id, EOK
}

// CreAlmProg creates an alarm handler whose body is a program (tk_cre_alm).
func (k *Kernel) CreAlmProg(name string, prog *Program) (_ ID, er ER) {
	k.enterSvc("tk_cre_alm")
	defer k.exitSvc("tk_cre_alm", &er)
	k.nextAlm++
	id := k.nextAlm
	a := &AlarmHandler{id: id, name: name, k: k}
	a.tt = k.newHandlerThread(name, core.KindAlarmHandler, prog)
	k.alms[id] = a
	return id, EOK
}

// DefIntProg defines an interrupt handler whose body is a program
// (tk_def_int).
func (k *Kernel) DefIntProg(intno int, name string, prog *Program) (er ER) {
	k.enterSvc("tk_def_int")
	defer k.exitSvc("tk_def_int", &er)
	if intno < 0 {
		return EPAR
	}
	isr := &ISR{intno: intno, name: name}
	isr.tt = k.newHandlerThread(name, core.KindISR, prog)
	k.isrs[intno] = isr
	return EOK
}
