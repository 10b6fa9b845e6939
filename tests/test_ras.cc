/**
 * @file
 * Tests for the return-address stack (bpred/ras.h) shared by the batched
 * replay engine and the Alpha 21064 pipeline model.
 */

#include <gtest/gtest.h>

#include "bpred/ras.h"

using namespace balign;

TEST(ReturnStack, LifoOrder)
{
    ReturnStack ras(8);
    ras.push(10);
    ras.push(20);
    ras.push(30);
    EXPECT_EQ(ras.pop(), 30u);
    EXPECT_EQ(ras.pop(), 20u);
    EXPECT_EQ(ras.pop(), 10u);
}

TEST(ReturnStack, UnderflowReturnsNoAddr)
{
    ReturnStack ras(4);
    EXPECT_EQ(ras.pop(), kNoAddr);
    ras.push(1);
    EXPECT_EQ(ras.pop(), 1u);
    EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(ReturnStack, WrapsAndOverwritesOldest)
{
    ReturnStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a);
    // Capacity 4: entries 3,4,5,6 survive.
    EXPECT_EQ(ras.depth(), 4u);
    EXPECT_EQ(ras.pop(), 6u);
    EXPECT_EQ(ras.pop(), 5u);
    EXPECT_EQ(ras.pop(), 4u);
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(ReturnStack, DeepRecursionPattern)
{
    // Push/pop balance across a simulated deep call chain within capacity.
    ReturnStack ras(32);
    for (Addr a = 0; a < 32; ++a)
        ras.push(a * 4);
    for (Addr a = 32; a-- > 0;)
        EXPECT_EQ(ras.pop(), a * 4);
}
