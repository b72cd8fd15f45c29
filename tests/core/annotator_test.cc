#include "core/annotator.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "core/variants.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "tests/test_util.h"

namespace c2mn {
namespace {

class AnnotatorTest : public ::testing::Test {
 protected:
  AnnotatorTest() : scenario_(testing_util::SmallMallScenario()) {
    Rng rng(7);
    split_ = SplitDataset(scenario_.dataset, 0.7, &rng);
    TrainOptions topts;
    topts.max_iter = 15;
    topts.mcmc_samples = 15;
    AlternateTrainer trainer(*scenario_.world, FeatureOptions{},
                             C2mnStructure{}, topts);
    weights_ = trainer.Train(split_.train).weights;
  }

  const Scenario& scenario_;
  TrainTestSplit split_;
  std::vector<double> weights_;
};

TEST_F(AnnotatorTest, OutputShapeAndDomain) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  const LabeledSequence& ls = *split_.test.front();
  const LabelSequence labels = annotator.Annotate(ls.sequence);
  ASSERT_EQ(labels.size(), ls.size());
  ASSERT_TRUE(labels.Consistent());
  const RegionId num_regions =
      static_cast<RegionId>(scenario_.world->plan().regions().size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_GE(labels.regions[i], 0);
    EXPECT_LT(labels.regions[i], num_regions);
  }
}

TEST_F(AnnotatorTest, EmptySequence) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  EXPECT_EQ(annotator.Annotate(PSequence{}).size(), 0u);
  EXPECT_TRUE(annotator.AnnotateSemantics(PSequence{}).empty());
}

TEST_F(AnnotatorTest, SemanticsAreValidMerge) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  for (const LabeledSequence* ls : split_.test) {
    const MSemanticsSequence ms = annotator.AnnotateSemantics(ls->sequence);
    EXPECT_TRUE(IsValidMSemanticsSequence(ms, ls->sequence));
  }
}

TEST_F(AnnotatorTest, DeterministicDecoding) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  const LabeledSequence& ls = *split_.test.front();
  const LabelSequence a = annotator.Annotate(ls.sequence);
  const LabelSequence b = annotator.Annotate(ls.sequence);
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_TRUE(std::equal(a.events.begin(), a.events.end(),
                         b.events.begin()));
}

TEST_F(AnnotatorTest, CompetitiveWithNearestNeighborBaselines) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  AccuracyAccumulator model_acc, smoothed_nn_acc, raw_nn_acc;
  FeatureOptions smoothed_opts;
  FeatureOptions raw_opts;
  raw_opts.smooth_observations = false;
  for (const LabeledSequence* ls : split_.test) {
    model_acc.Add(ls->labels, annotator.Annotate(ls->sequence));
    // Smoothed-NN reference (uses the same candidate machinery) and the
    // raw-NN predictor the classic baselines rely on.
    for (const FeatureOptions* opts : {&smoothed_opts, &raw_opts}) {
      SequenceGraph g(*scenario_.world, ls->sequence, *opts, nullptr);
      LabelSequence nn(ls->size());
      for (int i = 0; i < g.size(); ++i) {
        nn.regions[i] = g.Candidates(i)[0];
      }
      nn.events = g.InitialEvents();
      (opts == &smoothed_opts ? smoothed_nn_acc : raw_nn_acc)
          .Add(ls->labels, nn);
    }
  }
  // The trained model must clearly beat the raw-NN predictor and stay in
  // the same band as the smoothed-NN reference (which shares the
  // annotation emulator's view of the data).
  EXPECT_GT(model_acc.Report().combined_accuracy,
            raw_nn_acc.Report().combined_accuracy + 0.02);
  EXPECT_GT(model_acc.Report().combined_accuracy,
            smoothed_nn_acc.Report().combined_accuracy - 0.05);
}

TEST_F(AnnotatorTest, ViterbiAndMaxMarginalBothWork) {
  InferenceOptions viterbi;
  viterbi.use_max_marginals = false;
  const C2mnAnnotator mm(*scenario_.world, FeatureOptions{}, C2mnStructure{},
                         weights_);
  const C2mnAnnotator vit(*scenario_.world, FeatureOptions{}, C2mnStructure{},
                          weights_, viterbi);
  AccuracyAccumulator mm_acc, vit_acc;
  for (const LabeledSequence* ls : split_.test) {
    mm_acc.Add(ls->labels, mm.Annotate(ls->sequence));
    vit_acc.Add(ls->labels, vit.Annotate(ls->sequence));
  }
  // Both decoders must be in the same quality ballpark.
  EXPECT_NEAR(mm_acc.Report().combined_accuracy,
              vit_acc.Report().combined_accuracy, 0.1);
}

TEST_F(AnnotatorTest, DecoupledStructureStillAnnotates) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                DecoupledCmn().structure, weights_);
  const LabeledSequence& ls = *split_.test.front();
  const LabelSequence labels = annotator.Annotate(ls.sequence);
  EXPECT_EQ(labels.size(), ls.size());
}

}  // namespace
}  // namespace c2mn
