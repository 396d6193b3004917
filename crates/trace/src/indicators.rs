//! The monitoring indicators of Alibaba trace v2018 (paper Table I).

/// One of the eight performance indicators the trace records per entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Indicator {
    /// CPU utilisation percent (the prediction target in the paper).
    CpuUtilPercent,
    /// Memory utilisation percent.
    MemUtilPercent,
    /// Cycles per instruction.
    Cpi,
    /// Normalised memory bandwidth (GB/s).
    MemGps,
    /// Cache misses per kilo-instruction.
    Mpki,
    /// Normalised incoming network traffic.
    NetIn,
    /// Normalised outgoing network traffic.
    NetOut,
    /// Disk I/O utilisation percent.
    DiskIoPercent,
}

impl Indicator {
    /// All indicators in the canonical (Table I) order.
    pub const ALL: [Indicator; 8] = [
        Indicator::CpuUtilPercent,
        Indicator::MemUtilPercent,
        Indicator::Cpi,
        Indicator::MemGps,
        Indicator::Mpki,
        Indicator::NetIn,
        Indicator::NetOut,
        Indicator::DiskIoPercent,
    ];

    /// Column name as it appears in the trace CSVs.
    pub fn name(self) -> &'static str {
        match self {
            Indicator::CpuUtilPercent => "cpu_util_percent",
            Indicator::MemUtilPercent => "mem_util_percent",
            Indicator::Cpi => "cpi",
            Indicator::MemGps => "mem_gps",
            Indicator::Mpki => "mpki",
            Indicator::NetIn => "net_in",
            Indicator::NetOut => "net_out",
            Indicator::DiskIoPercent => "disk_io_percent",
        }
    }
}

impl std::fmt::Display for Indicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_unique_indicators() {
        let names: std::collections::HashSet<&str> =
            Indicator::ALL.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn cpu_is_first() {
        assert_eq!(Indicator::ALL[0], Indicator::CpuUtilPercent);
        assert_eq!(Indicator::ALL[0].name(), "cpu_util_percent");
    }

    #[test]
    fn display_is_the_column_name() {
        for i in Indicator::ALL {
            assert_eq!(format!("{i}"), i.name());
        }
    }
}
