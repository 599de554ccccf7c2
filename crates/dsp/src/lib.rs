#![warn(missing_docs)]

//! Signal-processing substrate: FFT, mel filterbanks, DCT and
//! a fully differentiable MFCC pipeline.
//!
//! Every simulated ASR in this workspace extracts MFCC features exactly as
//! the paper's Figure 2 describes (framing → windowing → FFT → mel
//! filterbank → log → DCT). The white-box attack of Carlini & Wagner
//! backpropagates its CTC loss *through* the feature extraction into the
//! waveform; [`mfcc::MfccExtractor::backward`] implements that adjoint pass
//! analytically (the paper calls this "adding the MFCC reconstruction layer
//! into the backpropagation optimization").
//!
//! # Examples
//!
//! ```
//! use mvp_dsp::mfcc::{MfccConfig, MfccExtractor};
//!
//! let extractor = MfccExtractor::new(MfccConfig::default());
//! let samples = vec![0.0f64; 1600]; // 100 ms of silence at 16 kHz
//! let feats = extractor.extract(&samples);
//! assert_eq!(feats.dim(), MfccConfig::default().n_cepstra);
//! ```

pub mod complex;
pub mod dct;
pub mod delta;
pub mod fft;
pub mod frame;
pub mod kernel;
pub mod mat;
pub mod mel;
pub mod mfcc;
pub mod window;

pub use complex::Complex;
pub use mat::Mat;
pub use mfcc::{FeatureMatrix, MfccConfig, MfccExtractor, MfccScratch, StreamingMfcc};
pub use window::Window;
