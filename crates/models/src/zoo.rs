//! Table I of the paper, embedded verbatim.
//!
//! Each entry gives the model's occupancy in GPU memory when serving
//! batch-32 inference (this is what the cache manager charges against the
//! 8 GiB device), the measured model loading time, and the measured
//! batch-32 inference latency on the paper's RTX 2080 testbed.

/// Architecture family; the live-serving crate (`gfaas-live`) picks a
/// runnable miniature network by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// SqueezeNet v1.0/v1.1.
    SqueezeNet,
    /// ResNet-18/34/50/101/152.
    ResNet,
    /// DenseNet-121/161/169/201.
    DenseNet,
    /// AlexNet.
    AlexNet,
    /// ResNeXt-50/101.
    ResNeXt,
    /// Inception v3.
    Inception,
    /// VGG-11/13/16/19 (+bn).
    Vgg,
    /// Wide ResNet 50-2 / 101-2.
    WideResNet,
}

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// torchvision model name.
    pub name: &'static str,
    /// Occupancy size in GPU memory (MiB) at batch size 32.
    pub occupancy_mib: u64,
    /// Measured model loading (host→GPU upload) time in seconds.
    pub load_secs: f64,
    /// Measured inference latency in seconds at batch size 32.
    pub infer_secs_b32: f64,
    /// Architecture family.
    pub family: Family,
}

/// The 22 models of Table I, in the paper's (size-ascending) order.
pub const TABLE1: &[ModelSpec] = &[
    ModelSpec {
        name: "squeezenet1.1",
        occupancy_mib: 1269,
        load_secs: 2.41,
        infer_secs_b32: 1.28,
        family: Family::SqueezeNet,
    },
    ModelSpec {
        name: "resnet18",
        occupancy_mib: 1313,
        load_secs: 2.52,
        infer_secs_b32: 1.25,
        family: Family::ResNet,
    },
    ModelSpec {
        name: "resnet34",
        occupancy_mib: 1357,
        load_secs: 2.60,
        infer_secs_b32: 1.25,
        family: Family::ResNet,
    },
    ModelSpec {
        name: "squeezenet1.0",
        occupancy_mib: 1435,
        load_secs: 2.32,
        infer_secs_b32: 1.33,
        family: Family::SqueezeNet,
    },
    ModelSpec {
        name: "alexnet",
        occupancy_mib: 1437,
        load_secs: 2.81,
        infer_secs_b32: 1.25,
        family: Family::AlexNet,
    },
    ModelSpec {
        name: "resnext50.32x4d",
        occupancy_mib: 1555,
        load_secs: 2.64,
        infer_secs_b32: 1.29,
        family: Family::ResNeXt,
    },
    ModelSpec {
        name: "densenet121",
        occupancy_mib: 1601,
        load_secs: 2.49,
        infer_secs_b32: 1.28,
        family: Family::DenseNet,
    },
    ModelSpec {
        name: "densenet169",
        occupancy_mib: 1631,
        load_secs: 2.56,
        infer_secs_b32: 1.30,
        family: Family::DenseNet,
    },
    ModelSpec {
        name: "densenet201",
        occupancy_mib: 1665,
        load_secs: 2.67,
        infer_secs_b32: 1.40,
        family: Family::DenseNet,
    },
    ModelSpec {
        name: "resnet50",
        occupancy_mib: 1701,
        load_secs: 2.67,
        infer_secs_b32: 1.28,
        family: Family::ResNet,
    },
    ModelSpec {
        name: "resnet101",
        occupancy_mib: 1757,
        load_secs: 2.95,
        infer_secs_b32: 1.30,
        family: Family::ResNet,
    },
    ModelSpec {
        name: "resnet152",
        occupancy_mib: 1827,
        load_secs: 3.10,
        infer_secs_b32: 1.31,
        family: Family::ResNet,
    },
    ModelSpec {
        name: "densenet161",
        occupancy_mib: 1919,
        load_secs: 2.75,
        infer_secs_b32: 1.32,
        family: Family::DenseNet,
    },
    ModelSpec {
        name: "inception.v3",
        occupancy_mib: 2157,
        load_secs: 4.42,
        infer_secs_b32: 1.63,
        family: Family::Inception,
    },
    ModelSpec {
        name: "resnext101.32x8d",
        occupancy_mib: 2191,
        load_secs: 3.51,
        infer_secs_b32: 1.33,
        family: Family::ResNeXt,
    },
    ModelSpec {
        name: "vgg11",
        occupancy_mib: 2903,
        load_secs: 3.94,
        infer_secs_b32: 1.29,
        family: Family::Vgg,
    },
    ModelSpec {
        name: "wideresnet502",
        occupancy_mib: 3611,
        load_secs: 3.16,
        infer_secs_b32: 1.31,
        family: Family::WideResNet,
    },
    ModelSpec {
        name: "wideresnet1012",
        occupancy_mib: 3831,
        load_secs: 3.91,
        infer_secs_b32: 1.32,
        family: Family::WideResNet,
    },
    ModelSpec {
        name: "vgg13",
        occupancy_mib: 3887,
        load_secs: 3.98,
        infer_secs_b32: 1.30,
        family: Family::Vgg,
    },
    ModelSpec {
        name: "vgg16",
        occupancy_mib: 3907,
        load_secs: 4.04,
        infer_secs_b32: 1.27,
        family: Family::Vgg,
    },
    ModelSpec {
        name: "vgg16.bn",
        occupancy_mib: 3907,
        load_secs: 4.03,
        infer_secs_b32: 1.26,
        family: Family::Vgg,
    },
    ModelSpec {
        name: "vgg19",
        occupancy_mib: 3947,
        load_secs: 4.07,
        infer_secs_b32: 1.33,
        family: Family::Vgg,
    },
];

/// The batch size Table I was profiled at.
pub const TABLE1_BATCH: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_all_22_models() {
        assert_eq!(TABLE1.len(), 22);
    }

    #[test]
    fn sorted_by_occupancy_as_in_paper() {
        for pair in TABLE1.windows(2) {
            assert!(
                pair[0].occupancy_mib <= pair[1].occupancy_mib,
                "{} out of order",
                pair[1].name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = TABLE1.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn paper_extremes_present() {
        let smallest = &TABLE1[0];
        assert_eq!(smallest.name, "squeezenet1.1");
        assert_eq!(smallest.occupancy_mib, 1269);
        let largest = TABLE1.last().unwrap();
        assert_eq!(largest.name, "vgg19");
        assert_eq!(largest.occupancy_mib, 3947);
        assert!((largest.load_secs - 4.07).abs() < 1e-9);
    }

    #[test]
    fn latency_ranges_match_paper() {
        for m in TABLE1 {
            assert!((2.3..=4.5).contains(&m.load_secs), "{}", m.name);
            assert!((1.2..=1.7).contains(&m.infer_secs_b32), "{}", m.name);
            // Loading always dominates a single batch-32 inference — this
            // asymmetry is what makes cache locality matter.
            assert!(m.load_secs > m.infer_secs_b32, "{}", m.name);
        }
    }

    #[test]
    fn every_family_represented() {
        use std::collections::HashSet;
        let fams: HashSet<_> = TABLE1.iter().map(|m| m.family).collect();
        assert_eq!(fams.len(), 8);
    }
}
