//! Image classification: ResNet with basic and bottleneck residual blocks
//! (paper Fig 1, after He et al. 2016).
//!
//! Models scale the way the paper scales them (§4.1): by depth (more blocks
//! per residual group) and by width (more convolution channels), not by
//! filter size.

use cgraph::{DType, Graph, GraphError, PointwiseFn, PoolKind, TensorId};
use symath::Expr;

use crate::common::{batch, Domain, ModelGraph};

/// Standard ResNet depths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResNetDepth {
    /// 18 layers (basic blocks).
    D18,
    /// 34 layers (basic blocks).
    D34,
    /// 50 layers (bottleneck blocks).
    D50,
    /// 101 layers (bottleneck blocks).
    D101,
    /// 152 layers (bottleneck blocks).
    D152,
}

impl ResNetDepth {
    /// Blocks per residual group.
    pub fn blocks(&self) -> [u64; 4] {
        match self {
            ResNetDepth::D18 => [2, 2, 2, 2],
            ResNetDepth::D34 => [3, 4, 6, 3],
            ResNetDepth::D50 => [3, 4, 6, 3],
            ResNetDepth::D101 => [3, 4, 23, 3],
            ResNetDepth::D152 => [3, 8, 36, 3],
        }
    }

    /// Whether groups use bottleneck (1×1–3×3–1×1) blocks.
    pub fn bottleneck(&self) -> bool {
        matches!(
            self,
            ResNetDepth::D50 | ResNetDepth::D101 | ResNetDepth::D152
        )
    }

    /// Numeric depth label.
    pub fn layers(&self) -> u64 {
        match self {
            ResNetDepth::D18 => 18,
            ResNetDepth::D34 => 34,
            ResNetDepth::D50 => 50,
            ResNetDepth::D101 => 101,
            ResNetDepth::D152 => 152,
        }
    }
}

/// Hyperparameters of the ResNet classifier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResNetConfig {
    /// Depth variant.
    pub depth: ResNetDepth,
    /// Stem width (64 in standard ResNets); residual groups use
    /// `width·{1,2,4,8}`.
    pub width: u64,
    /// Square input image edge.
    pub image: u64,
    /// Output classes.
    pub classes: u64,
}

impl Default for ResNetConfig {
    fn default() -> ResNetConfig {
        ResNetConfig {
            depth: ResNetDepth::D50,
            width: 64,
            image: 224,
            classes: 1000,
        }
    }
}

/// One convolution in the statically enumerated layer plan, generic over the
/// channel-count representation: `u64` for the closed-form parameter count,
/// [`Expr`] for the graph builder (where the width may be a free symbol).
#[derive(Clone, Debug)]
struct ConvSpec<C> {
    cin: C,
    cout: C,
    k: u64,
    stride: u64,
    pad: u64,
    /// Followed by batch norm.
    bn: bool,
}

/// Enumerate every convolution the builder will create, in order. Shared by
/// the parameter formula and (indirectly) the tests so the two cannot drift.
fn conv_plan(cfg: &ResNetConfig) -> Vec<ConvSpec<u64>> {
    let w = cfg.width;
    let mut plan = vec![ConvSpec {
        cin: 3,
        cout: w,
        k: 7,
        stride: 2,
        pad: 3,
        bn: true,
    }];
    let expansion = if cfg.depth.bottleneck() { 4 } else { 1 };
    let mut cin = w;
    for (gi, &nblocks) in cfg.depth.blocks().iter().enumerate() {
        let cmid = w << gi;
        let cout = cmid * expansion;
        for bi in 0..nblocks {
            let stride = if gi > 0 && bi == 0 { 2 } else { 1 };
            if cfg.depth.bottleneck() {
                plan.push(ConvSpec {
                    cin,
                    cout: cmid,
                    k: 1,
                    stride: 1,
                    pad: 0,
                    bn: true,
                });
                plan.push(ConvSpec {
                    cin: cmid,
                    cout: cmid,
                    k: 3,
                    stride,
                    pad: 1,
                    bn: true,
                });
                plan.push(ConvSpec {
                    cin: cmid,
                    cout,
                    k: 1,
                    stride: 1,
                    pad: 0,
                    bn: true,
                });
            } else {
                plan.push(ConvSpec {
                    cin,
                    cout,
                    k: 3,
                    stride,
                    pad: 1,
                    bn: true,
                });
                plan.push(ConvSpec {
                    cin: cout,
                    cout,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    bn: true,
                });
            }
            if bi == 0 && (stride != 1 || cin != cout) {
                // Projection shortcut.
                plan.push(ConvSpec {
                    cin,
                    cout,
                    k: 1,
                    stride,
                    pad: 0,
                    bn: true,
                });
            }
            cin = cout;
        }
    }
    plan
}

impl ResNetConfig {
    /// Closed-form parameter count (convs + batch norms + classifier).
    pub fn param_formula(&self) -> u64 {
        let convs: u64 = conv_plan(self)
            .iter()
            .map(|c| c.cout * c.cin * c.k * c.k + if c.bn { 2 * c.cout } else { 0 })
            .sum();
        let cfinal = self.final_channels();
        convs + cfinal * self.classes + self.classes
    }

    /// Channels entering the classifier head.
    pub fn final_channels(&self) -> u64 {
        let expansion = if self.depth.bottleneck() { 4 } else { 1 };
        (self.width << 3) * expansion
    }

    /// Scale `width` so the parameter count approximates `target`
    /// (binary search; convolution parameters grow quadratically in width).
    pub fn with_target_params(mut self, target: u64) -> ResNetConfig {
        let (mut lo, mut hi) = (8u64, 8192u64);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let p = ResNetConfig { width: mid, ..self }.param_formula();
            if p < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Pick the closer of the two bracketing widths.
        let above = ResNetConfig { width: lo, ..self }.param_formula();
        let below = ResNetConfig {
            width: lo.saturating_sub(1).max(8),
            ..self
        }
        .param_formula();
        self.width = if target.abs_diff(below) < target.abs_diff(above) {
            lo.saturating_sub(1).max(8)
        } else {
            lo
        };
        self
    }
}

fn conv_bn_relu(
    g: &mut Graph,
    name: &str,
    x: TensorId,
    spec: &ConvSpec<Expr>,
    relu: bool,
) -> Result<TensorId, GraphError> {
    let w = g.weight(
        format!("{name}.w"),
        [
            spec.cout.clone(),
            spec.cin.clone(),
            Expr::from(spec.k),
            Expr::from(spec.k),
        ],
    )?;
    let mut y = g.conv2d(name, x, w, spec.stride, spec.pad)?;
    if spec.bn {
        let gamma = g.weight(format!("{name}.bn"), [Expr::from(2u64) * spec.cout.clone()])?;
        y = g.batch_norm(&format!("{name}.bn_op"), y, gamma)?;
    }
    if relu {
        y = g.unary(&format!("{name}.relu"), PointwiseFn::Relu, y)?;
    }
    Ok(y)
}

/// Build the forward graph for `cfg`.
pub fn build_resnet(cfg: &ResNetConfig) -> ModelGraph {
    build_resnet_dims(cfg, Expr::from(cfg.width))
}

/// Build the forward graph with the stem width given as an expression
/// (possibly a free symbol). Channel counts are `width` times a constant
/// (`w·2^gi`, `·expansion`), so the `u64` shifts of `conv_plan` map onto
/// exact ring products here; see [`build_word_lm_dims`] for the shared
/// exactness contract.
///
/// [`build_word_lm_dims`]: crate::wordlm::build_word_lm_dims
pub fn build_resnet_dims(cfg: &ResNetConfig, w: impl Into<Expr>) -> ModelGraph {
    let w = w.into();
    let mut g = Graph::new(format!("resnet{}_w{w}", cfg.depth.layers()));
    let b = batch();

    let image = g
        .input(
            "image",
            [
                b.clone(),
                Expr::int(3),
                Expr::from(cfg.image),
                Expr::from(cfg.image),
            ],
            DType::F32,
        )
        .expect("fresh graph");

    let stem_spec = ConvSpec {
        cin: Expr::int(3),
        cout: w.clone(),
        k: 7,
        stride: 2,
        pad: 3,
        bn: true,
    };
    let mut x = conv_bn_relu(&mut g, "stem", image, &stem_spec, true).expect("stem");
    x = g
        .pool("stem.pool", PoolKind::Max, x, 3, 2, 1)
        .expect("pool");

    let expansion = if cfg.depth.bottleneck() { 4u64 } else { 1 };
    let mut cin = w.clone();
    for (gi, &nblocks) in cfg.depth.blocks().iter().enumerate() {
        let cmid = w.clone() * Expr::from(1u64 << gi);
        let cout = cmid.clone() * Expr::from(expansion);
        for bi in 0..nblocks {
            let stride = if gi > 0 && bi == 0 { 2 } else { 1 };
            let prefix = format!("g{gi}.b{bi}");
            // Channel exprs are `constant·w`, so structural equality here
            // decides exactly as the `u64` comparison in `conv_plan` does.
            let shortcut = if bi == 0 && (stride != 1 || cin != cout) {
                let spec = ConvSpec {
                    cin: cin.clone(),
                    cout: cout.clone(),
                    k: 1,
                    stride,
                    pad: 0,
                    bn: true,
                };
                conv_bn_relu(&mut g, &format!("{prefix}.proj"), x, &spec, false).expect("proj")
            } else {
                x
            };
            let body = if cfg.depth.bottleneck() {
                let s1 = ConvSpec {
                    cin: cin.clone(),
                    cout: cmid.clone(),
                    k: 1,
                    stride: 1,
                    pad: 0,
                    bn: true,
                };
                let s2 = ConvSpec {
                    cin: cmid.clone(),
                    cout: cmid.clone(),
                    k: 3,
                    stride,
                    pad: 1,
                    bn: true,
                };
                let s3 = ConvSpec {
                    cin: cmid.clone(),
                    cout: cout.clone(),
                    k: 1,
                    stride: 1,
                    pad: 0,
                    bn: true,
                };
                let y = conv_bn_relu(&mut g, &format!("{prefix}.c1"), x, &s1, true).expect("c1");
                let y = conv_bn_relu(&mut g, &format!("{prefix}.c2"), y, &s2, true).expect("c2");
                conv_bn_relu(&mut g, &format!("{prefix}.c3"), y, &s3, false).expect("c3")
            } else {
                let s1 = ConvSpec {
                    cin: cin.clone(),
                    cout: cout.clone(),
                    k: 3,
                    stride,
                    pad: 1,
                    bn: true,
                };
                let s2 = ConvSpec {
                    cin: cout.clone(),
                    cout: cout.clone(),
                    k: 3,
                    stride: 1,
                    pad: 1,
                    bn: true,
                };
                let y = conv_bn_relu(&mut g, &format!("{prefix}.c1"), x, &s1, true).expect("c1");
                conv_bn_relu(&mut g, &format!("{prefix}.c2"), y, &s2, false).expect("c2")
            };
            let sum = g
                .binary(&format!("{prefix}.add"), PointwiseFn::Add, body, shortcut)
                .expect("residual add");
            x = g
                .unary(&format!("{prefix}.relu"), PointwiseFn::Relu, sum)
                .expect("relu");
            cin = cout.clone();
        }
    }

    // Head: global average pool → FC → softmax loss.
    let spatial = g.tensor(x).shape.dim(2).clone();
    let k = spatial.as_const().expect("spatial dims are constant").num() as u64;
    x = g.pool("head.gap", PoolKind::Avg, x, k, k, 0).expect("gap");
    // `final_channels` recomputed in expr space: (w·2³)·expansion.
    let cfinal = w * Expr::from(8 * expansion);
    let flat = g
        .reshape("head.flat", x, [b.clone(), cfinal.clone()])
        .expect("reshape");
    let wo = g
        .weight("head.fc", [cfinal, Expr::from(cfg.classes)])
        .expect("fc");
    let bo = g
        .weight("head.fc_bias", [Expr::from(cfg.classes)])
        .expect("bias");
    let logits = g
        .matmul("head.logits", flat, wo, false, false)
        .expect("matmul");
    let logits = g.bias_add("head.bias", logits, bo).expect("bias add");
    let labels = g.input("labels", [b], DType::I32).expect("labels");
    let loss = g.cross_entropy("loss", logits, labels).expect("loss");

    ModelGraph {
        graph: g,
        loss,
        domain: Domain::ImageClassification,
        is_training: false,
        seq_len: 1,
        labels_per_sample: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_closed_form_all_depths() {
        for depth in [
            ResNetDepth::D18,
            ResNetDepth::D34,
            ResNetDepth::D50,
            ResNetDepth::D101,
            ResNetDepth::D152,
        ] {
            let cfg = ResNetConfig {
                depth,
                width: 16,
                image: 64,
                ..Default::default()
            };
            let m = build_resnet(&cfg);
            assert_eq!(m.param_count(), cfg.param_formula(), "depth {:?}", depth);
            m.graph.validate().unwrap();
        }
    }

    #[test]
    fn resnet50_has_canonical_param_count() {
        // torchvision ResNet-50: 25.557M parameters.
        let cfg = ResNetConfig::default();
        let p = cfg.param_formula() as f64;
        assert!(
            (p - 25.557e6).abs() / 25.557e6 < 0.01,
            "ResNet-50 params {p} should be ≈25.56M"
        );
    }

    #[test]
    fn training_graph_validates() {
        let cfg = ResNetConfig {
            depth: ResNetDepth::D18,
            width: 8,
            image: 32,
            classes: 10,
        };
        let m = build_resnet(&cfg).into_training();
        m.graph.validate().unwrap();
    }

    #[test]
    fn spatial_chain_floors_to_seven_at_224() {
        let cfg = ResNetConfig::default();
        let m = build_resnet(&cfg);
        // Final residual activation is [b, 2048, 7, 7].
        let gap = m
            .graph
            .ops()
            .iter()
            .find(|o| o.name == "head.gap")
            .expect("gap op");
        let in_shape = &m.graph.tensor(gap.inputs[0]).shape;
        assert_eq!(in_shape.dim(2), &Expr::int(7));
        assert_eq!(in_shape.dim(1), &Expr::int(2048));
    }

    #[test]
    fn flops_per_param_is_high_for_convnets() {
        // Convolutions reuse each weight across all spatial positions, so
        // FLOPs/param is far higher than recurrent models (Table 2 ≈ 1111).
        let m = build_resnet(&ResNetConfig::default()).into_training();
        let n = m.graph.stats().eval(&m.bindings_with_batch(1)).unwrap();
        let ratio = n.flops / n.params;
        assert!(ratio > 500.0, "flops/param = {ratio}");
    }

    #[test]
    fn with_target_params_scales_width() {
        for target in [100_000_000u64, 700_000_000] {
            let cfg = ResNetConfig::default().with_target_params(target);
            let rel = (cfg.param_formula() as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.10, "target {target}: rel err {rel}");
        }
    }

    #[test]
    fn deeper_nets_have_more_ops_and_params() {
        let small = ResNetConfig {
            depth: ResNetDepth::D50,
            width: 16,
            image: 64,
            ..Default::default()
        };
        let big = ResNetConfig {
            depth: ResNetDepth::D152,
            width: 16,
            image: 64,
            ..Default::default()
        };
        let ms = build_resnet(&small);
        let mb = build_resnet(&big);
        assert!(mb.graph.ops().len() > ms.graph.ops().len());
        assert!(mb.param_count() > ms.param_count());
    }
}
