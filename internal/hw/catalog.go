package hw

// This file is the device catalog: datasheet-class constants for the
// 2008-era hardware the paper's two experiments ran on. All experiment
// behaviour emerges from these models; nothing downstream fits curves to
// the paper's figures.

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

// MB is 10^6 bytes (storage-vendor megabytes, as in "90 MB/s").
const MB = 1e6

// Cheetah15K models a 73 GB 15K-RPM SCSI drive (the paper's MSA70 trays
// held 15K RPM 73 GB drives). Power numbers include a per-slot share of
// the drive tray's backplane and fans, which is why they sit slightly
// above bare-drive datasheet figures.
func Cheetah15K() DiskSpec {
	return DiskSpec{
		Name:          "cheetah15k",
		CapacityBytes: 73 * GiB,
		SeqReadBW:     90 * MB,
		SeqWriteBW:    85 * MB,
		AvgSeek:       0.0035, // 3.5 ms
		RotLatency:    0.0020, // 2 ms at 15K RPM
		ActiveWatts:   17,
		IdleWatts:     13,
		StandbyWatts:  2.5,
		SpinUpWatts:   24,
		SpinUpTime:    6.0,
	}
}

// FlashSSD2008 models one of the three flash drives in the paper's scan
// experiment (Figure 2). The three together draw 5 W, so each is ~1.67 W;
// the paper's arithmetic charges the same 5 W for the whole query, so idle
// and active power are set equal.
func FlashSSD2008() SSDSpec {
	return SSDSpec{
		Name:          "flash2008",
		CapacityBytes: 32 * GiB,
		ReadBW:        80 * MB,
		WriteBW:       40 * MB,
		ReadLatency:   0.0001,
		ActiveWatts:   5.0 / 3,
		IdleWatts:     5.0 / 3,
	}
}

// ScanCPU2008 is the single 90 W CPU of the Figure 2 experiment. The paper
// assumes "an idle CPU does not consume any power (or ... some other
// concurrent task is taking up the rest of the CPU cycles)", so idle power
// is zero and the whole 90 W is attributed to the busy state.
func ScanCPU2008() CPUSpec {
	return CPUSpec{
		Name:          "scan-cpu",
		Cores:         1,
		FreqHz:        2.4e9,
		IdleWatts:     0,
		ActivePerCore: 90,
		PStates: []PState{
			{Name: "P0", FreqScale: 1.0, PowerScale: 1.0},
			{Name: "P1", FreqScale: 0.8, PowerScale: 0.55},
			{Name: "P2", FreqScale: 0.6, PowerScale: 0.30},
		},
	}
}

// OpteronComplex models the 8-socket quad-core Opteron complex of the
// HP ProLiant DL785 used for Figure 1 (32 cores at 2.2 GHz).
func OpteronComplex() CPUSpec {
	return CPUSpec{
		Name:          "opteron-8x4",
		Cores:         32,
		FreqHz:        2.2e9,
		IdleWatts:     200, // 8 sockets idling
		ActivePerCore: 9,   // +288 W with all 32 cores busy
		PStates: []PState{
			{Name: "P0", FreqScale: 1.0, PowerScale: 1.0},
			{Name: "P1", FreqScale: 0.75, PowerScale: 0.5},
		},
	}
}

// DDR2x64GiB models the DL785's 64 GB of DDR2 in 8 power-managed ranks.
func DDR2x64GiB() DRAMSpec {
	return DRAMSpec{
		Name:         "ddr2-64g",
		Ranks:        8,
		BytesPerRank: 8 * GiB,
		WattsPerRank: 8, // 64 W background for 64 GB
	}
}

// DL785 returns the Figure 1 server: the audited-TPC-H-like HP ProLiant
// DL785 with a configurable number of SCSI disks (the paper sweeps 36, 66,
// 108, 204). BaseWatts covers chassis, fans, PSU losses and SAS
// controllers; cooling is not modelled, as the paper's figures meter
// server power only.
func DL785(numDisks int) ServerSpec {
	return ServerSpec{
		Name:      "dl785",
		CPU:       OpteronComplex(),
		DRAM:      DDR2x64GiB(),
		BaseWatts: 180,
		Disk:      Cheetah15K(),
		NumDisks:  numDisks,
	}
}

// ScanRig returns the Figure 2 machine: one 90 W CPU and three flash SSDs
// totalling 5 W. No DRAM or base power is modelled because the paper's
// energy arithmetic includes neither.
func ScanRig() ServerSpec {
	return ServerSpec{
		Name:    "scanrig",
		CPU:     ScanCPU2008(),
		NumSSDs: 3,
		SSD:     FlashSSD2008(),
	}
}

// SmallServer is a modest 8-core box used by examples, unit tests and the
// consolidation experiments: big enough to be interesting, cheap to run.
func SmallServer(numDisks int) ServerSpec {
	return ServerSpec{
		Name: "small",
		CPU: CPUSpec{
			Name:          "xeon-8c",
			Cores:         8,
			FreqHz:        2.5e9,
			IdleWatts:     40,
			ActivePerCore: 11,
			PStates: []PState{
				{Name: "P0", FreqScale: 1.0, PowerScale: 1.0},
				{Name: "P1", FreqScale: 0.7, PowerScale: 0.4},
			},
		},
		DRAM: DRAMSpec{
			Name:         "ddr3-16g",
			Ranks:        4,
			BytesPerRank: 4 * GiB,
			WattsPerRank: 3,
		},
		BaseWatts: 60,
		Disk:      Cheetah15K(),
		NumDisks:  numDisks,
	}
}
