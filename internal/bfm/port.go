package bfm

import "fmt"

// Peripheral is an external device attached to a parallel I/O port. The
// port forwards written values to the device and reads the device's output
// latch.
type Peripheral interface {
	// Name identifies the device in traces.
	Name() string
	// PortWrite receives a value driven onto the port.
	PortWrite(v byte)
	// PortRead returns the value the device drives back.
	PortRead() byte
}

// Port is one multiplexed parallel I/O port (P0..P3). Several peripheral
// devices can be attached; a select register multiplexes which device the
// data lines address, as in the case study's "Multiplexed Parallel I/O
// interface to which several external peripheral devices are connected".
//
// Each access is a handshake of one machine cycle. Select, Write and Read
// charge it to the calling T-THREAD and then run the access; a compiled
// program charges SelectCharge/WriteCharge/ReadCharge itself and runs the
// matching uncharged Effect method.
type Port struct {
	b       *BFM
	index   int
	latch   byte
	devices []Peripheral
	sel     int

	signal            string // VCD probe name
	selC, writeC, rdC Charge

	writes uint64
	reads  uint64
}

func newPort(b *BFM, index int) *Port {
	return &Port{
		b:      b,
		index:  index,
		signal: fmt.Sprintf("p%d", index),
		selC:   b.charge(1, fmt.Sprintf("p%d.sel", index)),
		writeC: b.charge(1, fmt.Sprintf("p%d.wr", index)),
		rdC:    b.charge(1, fmt.Sprintf("p%d.rd", index)),
	}
}

// Attach connects a peripheral and returns its select index.
func (p *Port) Attach(dev Peripheral) int {
	p.devices = append(p.devices, dev)
	return len(p.devices) - 1
}

// Select multiplexes the port onto the given attached device
// (1 machine cycle to write the select register).
func (p *Port) Select(idx int) {
	p.b.consume(p.selC)
	p.SelectEffect(idx)
}

// SelectCharge is the charge half of Select.
func (p *Port) SelectCharge() Charge { return p.selC }

// SelectEffect is the uncharged half of Select.
func (p *Port) SelectEffect(idx int) {
	p.b.count(p.selC)
	if idx >= 0 && idx < len(p.devices) {
		p.sel = idx
	}
}

// Write drives a value onto the port (1 machine cycle) and forwards it to
// the selected peripheral.
func (p *Port) Write(v byte) {
	p.b.consume(p.writeC)
	p.WriteEffect(v)
}

// WriteCharge is the charge half of Write.
func (p *Port) WriteCharge() Charge { return p.writeC }

// WriteEffect is the uncharged half of Write.
func (p *Port) WriteEffect(v byte) {
	p.b.count(p.writeC)
	p.latch = v
	p.writes++
	p.b.probe(p.signal, uint64(v))
	if p.sel < len(p.devices) {
		p.devices[p.sel].PortWrite(v)
	}
}

// Read samples the port (1 machine cycle): the selected peripheral's output
// if any device is attached, else the latch.
func (p *Port) Read() byte {
	p.b.consume(p.rdC)
	return p.ReadEffect()
}

// ReadCharge is the charge half of Read.
func (p *Port) ReadCharge() Charge { return p.rdC }

// ReadEffect is the uncharged half of Read.
func (p *Port) ReadEffect() byte {
	p.b.count(p.rdC)
	p.reads++
	if p.sel < len(p.devices) {
		return p.devices[p.sel].PortRead()
	}
	return p.latch
}

// Latch returns the last written value without bus activity (for tests and
// waveform rendering).
func (p *Port) Latch() byte { return p.latch }

// Writes returns the number of write accesses.
func (p *Port) Writes() uint64 { return p.writes }

// Reads returns the number of read accesses.
func (p *Port) Reads() uint64 { return p.reads }
