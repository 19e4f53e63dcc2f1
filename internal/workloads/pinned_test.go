package workloads_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"gpushare/internal/asm"
	"gpushare/internal/mem"
	"gpushare/internal/workloads"
)

// proxyDigest is the SHA-256 of each part of one built and set-up
// proxy: the program (assembly text plus every kernel field, the
// footprint included), the grid, the launch parameters Setup filled in,
// and the global-memory pages Setup wrote.
type proxyDigest struct {
	kernel, grid, params, memory string
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func u32s(vs ...uint32) []byte {
	out := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// digestInstance builds and sets up a fresh instance on an empty global
// memory and hashes each part.
func digestInstance(inst *workloads.Instance) proxyDigest {
	k := inst.Launch.Kernel
	m := mem.NewGlobal()
	inst.Setup(m)
	c := m.Checkpoint()
	h := sha256.New()
	h.Write(u32s(c.Brk))
	for _, p := range c.Pages {
		h.Write(u32s(p.Index))
		h.Write(p.Data)
	}
	return proxyDigest{
		kernel: digest([]byte(asm.Print(k)), []byte(fmt.Sprintf("%+v", *k))),
		grid:   digest(u32s(uint32(inst.Launch.GridDim))),
		params: digest(u32s(inst.Launch.Params...)),
		memory: hex.EncodeToString(h.Sum(nil)),
	}
}

func pinnedSpecs() []*workloads.Spec {
	return append(append([]*workloads.Spec{}, workloads.All()...), workloads.EpilogueMicro)
}

// pinnedProxies is every proxy's digest at scales 1 and 2. A refactor
// of internal/workloads leaves this table alone: the programs, grids,
// launch parameters and initial memory it pins are what every job key,
// checkpoint and EXPERIMENTS.md cell was computed from. Only a
// deliberate change to a proxy edits a row, and says so.
var pinnedProxies = map[string]proxyDigest{
	"backprop/1": {
		kernel: "8cd9c98fe82b3b0cb08396a3f95432b3f522e0be4331da0d683b43f8cfac9494",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "0b604255db14bf2c7e990311698555d4c1b5c06f18cd4134d72d773c11baed1d",
		memory: "227ffc6b679d39c92336c4cd98785006486fe546cf38ecd8fec3d851246bc46d",
	},
	"backprop/2": {
		kernel: "8cd9c98fe82b3b0cb08396a3f95432b3f522e0be4331da0d683b43f8cfac9494",
		grid:   "3a45eddfd601cbedc3db82bd316cd0a7d033c617481ea19d30304bec8d67396d",
		params: "2b0c924dc357b5d40a0b92cf119b2e6b0afde5cf9e74cf2e43eb72986756e40f",
		memory: "2458dfd81d36a209fd14bc044ceb5d2abd11193bf2d2e698fd68204a71c9b4b1",
	},
	"b+tree/1": {
		kernel: "38cadbfe0f75ee8df7a8152e2bc4b2fd026e3b0adeadfaa0854b26c70ea15fbe",
		grid:   "76803349baeb5f1ce6a8194b832de56fcdc6d0f8d14fe8cb2687956374bfda10",
		params: "981eadb01af108425db4693d68005081ab5fb06218f0baef2bf202526bddfe88",
		memory: "a9d0f6ad1a1027ce3f1183ff71cc274e0364a479d02f7762bc2e0e0caebcf24c",
	},
	"b+tree/2": {
		kernel: "38cadbfe0f75ee8df7a8152e2bc4b2fd026e3b0adeadfaa0854b26c70ea15fbe",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "ff034c6b872f83c9c7704fa03f08d3132982f960b81a14688301a8d1b5148669",
		memory: "e5bd9284e1c68a7a5a90dbadf444fd577edaac7472521db5cb0d4bdd660d708d",
	},
	"hotspot/1": {
		kernel: "f1e4d2373131d0d5081c0e11e84a299822f26c7215d957f50228f34a6e006bd6",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "f7d08bb769423d51aa3bf4c67543449973c2b0d696cb2b713beccdaf344a7c42",
		memory: "8a77fe23fb1b238dc390f5b2557ae043a9a9f12bc3c0e71302051da8cb96b19d",
	},
	"hotspot/2": {
		kernel: "f1e4d2373131d0d5081c0e11e84a299822f26c7215d957f50228f34a6e006bd6",
		grid:   "3a45eddfd601cbedc3db82bd316cd0a7d033c617481ea19d30304bec8d67396d",
		params: "4e21cabfaaa785c5538788bac44e72dcf0fe64a1eb10d6f5bf95a7ed0e00a447",
		memory: "e6420356b2cf706c3ee3ea87eb5afb570c5f9d7e4e964652d922fea54eccbe34",
	},
	"MUM/1": {
		kernel: "effb632f6f5131b397ac2c28fbeedeb6e9e6f019df348e2e3b03de77af9268cb",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "483ac368f6a6665996d76b653e73e21e46047c35a2a556a0278a51ff81c0f7bb",
		memory: "2cd67248cc261d7e56a338a3c85302d5936e23655a6dda13cea13989547b4a7a",
	},
	"MUM/2": {
		kernel: "effb632f6f5131b397ac2c28fbeedeb6e9e6f019df348e2e3b03de77af9268cb",
		grid:   "3a45eddfd601cbedc3db82bd316cd0a7d033c617481ea19d30304bec8d67396d",
		params: "483ac368f6a6665996d76b653e73e21e46047c35a2a556a0278a51ff81c0f7bb",
		memory: "aca9d0c530bf8922abc85c7136d4965e141c34a620b180026816eb2a5d9ecdf6",
	},
	"mri-q/1": {
		kernel: "c962464d3bebd9521f3f5ea4123c8e1c2e10a32a982467c71df5c33de1753f3a",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "58bf1da99e320400016782913fdcc14cdd3b2ddec9ea9ddd671f9493ad343d30",
		memory: "236bb80839300209360c31f3b48d1ae4e6653b5806884bbda3c1ad61bef9d020",
	},
	"mri-q/2": {
		kernel: "c962464d3bebd9521f3f5ea4123c8e1c2e10a32a982467c71df5c33de1753f3a",
		grid:   "3a45eddfd601cbedc3db82bd316cd0a7d033c617481ea19d30304bec8d67396d",
		params: "fa140394c34649aad164e59e76bc8fd65f945311b0bcbcfb0f89ab627cabdb4a",
		memory: "f5b9282e6edc3316cf07860ba55357a31f4316538353a12058b68a00907693bc",
	},
	"LIB/1": {
		kernel: "2e9a973480b5441d327b00bef831dbf02efcdee5ff84c3a6ba83cd6f030ffb79",
		grid:   "2e61bcea597570e82112505d266b413c3013bf4c8f40c2d096dc2584643eb1ce",
		params: "167a76aaf45167d30f724458c5d3246b67998ec6fdf65eae6977f3e884ba5c68",
		memory: "fcd23aecd3298c73cafc596ecd0375d9c0be0995c684e241ca58e3e04f0f4454",
	},
	"LIB/2": {
		kernel: "2e9a973480b5441d327b00bef831dbf02efcdee5ff84c3a6ba83cd6f030ffb79",
		grid:   "58acbbde5f95141f633744bd9ee08cc429cbe31b8fd194e2f7555aa09484f5af",
		params: "199a099125592ab580d957b6a877b1abd4d581ece3e99e61e09b33f9c0b59b81",
		memory: "3726eb31c0cc221a4c8f6d426c6bbfe8f5a523b3edf17f75e7ea5a385e752896",
	},
	"sgemm/1": {
		kernel: "2495cf84f8317c07e5a5f4c5187c65ee057db631b2c110df2d96cc8142f23255",
		grid:   "2e61bcea597570e82112505d266b413c3013bf4c8f40c2d096dc2584643eb1ce",
		params: "1309d81ee138edc21c73c9049625a8c0676416fc87d80798f572df66474c7bc8",
		memory: "6b131454fc0718ced54c7a9c2488fc2ff90ccaba59ec8dfaef12c9c09815d391",
	},
	"sgemm/2": {
		kernel: "2495cf84f8317c07e5a5f4c5187c65ee057db631b2c110df2d96cc8142f23255",
		grid:   "58acbbde5f95141f633744bd9ee08cc429cbe31b8fd194e2f7555aa09484f5af",
		params: "099b560258debb549777f977c3991b85817d48d3d0041838a42049ec6bf58005",
		memory: "e2f4db33e155dc9f3fdd6670b0a5344073d77741433b5cecbb61c0231d0342fa",
	},
	"stencil/1": {
		kernel: "dfba3089d60ff3900816a9105dc81e71e698514087b0ad822b0cede1d53b2961",
		grid:   "76803349baeb5f1ce6a8194b832de56fcdc6d0f8d14fe8cb2687956374bfda10",
		params: "a49a5997df218c07588c5ce2cf6c3bf6c98e85645242b09e442c0b3d8bd92a9f",
		memory: "ab9d5eb922a01e434d9596741e6cbe7cb8b1c5975ac8a47b1d0b7e17dd119c51",
	},
	"stencil/2": {
		kernel: "dfba3089d60ff3900816a9105dc81e71e698514087b0ad822b0cede1d53b2961",
		grid:   "ca3c9abacd39bbd9b5116e39cb38c500083f814406268ccd1cd40ffafc3825a6",
		params: "7f8653f4c33187fe537c36c9b094aa842a603880804bdfad22d2cc27cb64249c",
		memory: "0f50a9012d7c5b5b70a3d6511c70a73478dd58f06f51f3df5eae6575763f251e",
	},
	"CONV1/1": {
		kernel: "894e3bd71bf1803468cec7ec0e47bbd1272c9c78d19462422f72f839696744b4",
		grid:   "0d10a1656a262873081168b1f66a88a9a4f47ec881d30372893d52973ac0abd9",
		params: "48b540a9328a29624254619feb151c00ae6d1591459968143807f6c85f7764a2",
		memory: "bc492d34f6c8a1a5e6a4221bf7c041cfbea09d30afc1bc4548e5631ca6cfb6c7",
	},
	"CONV1/2": {
		kernel: "894e3bd71bf1803468cec7ec0e47bbd1272c9c78d19462422f72f839696744b4",
		grid:   "c9c2eddffd55fb5017536149dbd3923278fd8d31fd57f3ff38013a7a1f32c504",
		params: "9bd552881077dce36f7535cf5b0b85093daf410cdb917e15651805f078877a36",
		memory: "66c13281088c2b4393f82d1905823062e7947611071be23f50244b9b63b0b10f",
	},
	"CONV2/1": {
		kernel: "15a4b04774c14559183513782c3df3c11521584d276a02180399b25cc4add70b",
		grid:   "cbce3f24bbaf263e07da1c5f31dcebcaf407d740d884c1298ab73a9641074a89",
		params: "48b540a9328a29624254619feb151c00ae6d1591459968143807f6c85f7764a2",
		memory: "bc492d34f6c8a1a5e6a4221bf7c041cfbea09d30afc1bc4548e5631ca6cfb6c7",
	},
	"CONV2/2": {
		kernel: "15a4b04774c14559183513782c3df3c11521584d276a02180399b25cc4add70b",
		grid:   "0d10a1656a262873081168b1f66a88a9a4f47ec881d30372893d52973ac0abd9",
		params: "9bd552881077dce36f7535cf5b0b85093daf410cdb917e15651805f078877a36",
		memory: "66c13281088c2b4393f82d1905823062e7947611071be23f50244b9b63b0b10f",
	},
	"lavaMD/1": {
		kernel: "66a0e44b2fbfc624375e23d88550c89a2e607df398734f363108c334a3572010",
		grid:   "0750704287b7ada46d7010af7c2e4c49ea779d5d36274405e850d76b1e8bb597",
		params: "1f232bbde49e850c37cbcee890d54392727116c8945934deb2d6fa76d5e50a08",
		memory: "ff3f75c592abebeae5aa78a7593f0ff6cdf95a1ca63838ff10e1d69ed38ed51e",
	},
	"lavaMD/2": {
		kernel: "66a0e44b2fbfc624375e23d88550c89a2e607df398734f363108c334a3572010",
		grid:   "2e61bcea597570e82112505d266b413c3013bf4c8f40c2d096dc2584643eb1ce",
		params: "f07d0bd449f2d4eb61b59fc3efa7c787bfda9a27ff9ccbbe3d65fe1eed598588",
		memory: "9e753d081cda38bba06de258ab086394fc1db1990404b1a0542b30ee08b8c8ea",
	},
	"NW1/1": {
		kernel: "c50264309fe8d5247e5ac94f17e046214cfffee741382fdd82c7df0b7aabacbd",
		grid:   "0d10a1656a262873081168b1f66a88a9a4f47ec881d30372893d52973ac0abd9",
		params: "e6e0af1370bf9e31bd7b254854a942212881ae599c686017d5bcdf4384e08453",
		memory: "d2b2c1dbf9448e1527f8d12bfcf22fdf2d50bd236e3e587aa5c0cdf31b0c90ad",
	},
	"NW1/2": {
		kernel: "c50264309fe8d5247e5ac94f17e046214cfffee741382fdd82c7df0b7aabacbd",
		grid:   "c9c2eddffd55fb5017536149dbd3923278fd8d31fd57f3ff38013a7a1f32c504",
		params: "c8d20f0e30d7428812fbbeb0746174ce08e5a9784ad8a8867c13f916296f74ec",
		memory: "808f87d6715d2c92ef1cb7550cde27c9d75d5c62159ad8080e564b64d391cc9e",
	},
	"NW2/1": {
		kernel: "b547668185350afede6d66cd6ef62e423ef8755c3f466d35333cf2bbe3a4a82a",
		grid:   "0d10a1656a262873081168b1f66a88a9a4f47ec881d30372893d52973ac0abd9",
		params: "e6e0af1370bf9e31bd7b254854a942212881ae599c686017d5bcdf4384e08453",
		memory: "d2b2c1dbf9448e1527f8d12bfcf22fdf2d50bd236e3e587aa5c0cdf31b0c90ad",
	},
	"NW2/2": {
		kernel: "b547668185350afede6d66cd6ef62e423ef8755c3f466d35333cf2bbe3a4a82a",
		grid:   "c9c2eddffd55fb5017536149dbd3923278fd8d31fd57f3ff38013a7a1f32c504",
		params: "c8d20f0e30d7428812fbbeb0746174ce08e5a9784ad8a8867c13f916296f74ec",
		memory: "808f87d6715d2c92ef1cb7550cde27c9d75d5c62159ad8080e564b64d391cc9e",
	},
	"SRAD1/1": {
		kernel: "dd88c37d96394ed925872c2bb4810d1463c6d790e7ea05fdeb5cd421632d1c82",
		grid:   "cbce3f24bbaf263e07da1c5f31dcebcaf407d740d884c1298ab73a9641074a89",
		params: "9bd552881077dce36f7535cf5b0b85093daf410cdb917e15651805f078877a36",
		memory: "bbed1a7e6ae4a744306a892b96d4742dadc32368540fc469235d1638e8d61430",
	},
	"SRAD1/2": {
		kernel: "dd88c37d96394ed925872c2bb4810d1463c6d790e7ea05fdeb5cd421632d1c82",
		grid:   "0d10a1656a262873081168b1f66a88a9a4f47ec881d30372893d52973ac0abd9",
		params: "e6e0af1370bf9e31bd7b254854a942212881ae599c686017d5bcdf4384e08453",
		memory: "860af7dab1685607668c9f18e7b2d2581970d6527ad2b77261ef14cfdd867be8",
	},
	"SRAD2/1": {
		kernel: "1467984df506735f594d4d3579b2af1b23d9d4fa08359648f265470fecf8640a",
		grid:   "f2ba7fd7cee8fb5ab004b15683ef9bdd14f64aa11968689f14c6ce0a78a3b92f",
		params: "278c3e180d367d9d7e6203434bb672c54224ecffb9d7946aa8a7c473662721c6",
		memory: "04d78851ecf4452d245e9540ee4be6649f4b2dfaa7b36f8c6cf3450183f03be2",
	},
	"SRAD2/2": {
		kernel: "1467984df506735f594d4d3579b2af1b23d9d4fa08359648f265470fecf8640a",
		grid:   "7f7aab156e1a6bc79430705ec3fb4683c9fba88bc0124e7726a25a84dc22f7e1",
		params: "49ed5c6c2fa16cc144ee92e0ec68f2a893ab91c90fb48f197187c42d6e4fdec0",
		memory: "648843ad8dde25d91ec87d37882ebbf91102ccc3eb95dbb8d8646840f2b7bc2f",
	},
	"backprop2/1": {
		kernel: "461357ce924a8b7cd25c223d2962294cfda8bf54c915e662554812d940ad98d3",
		grid:   "3fbf037cb6bcb6178ea17e51a1766736cbcb464e4bc6991e76c0961d313c9446",
		params: "1f232bbde49e850c37cbcee890d54392727116c8945934deb2d6fa76d5e50a08",
		memory: "ccbb360e8e8af7d6c136b0fe80cb3d6f68b88e83887816c5bb44ad5d0c6dbafa",
	},
	"backprop2/2": {
		kernel: "461357ce924a8b7cd25c223d2962294cfda8bf54c915e662554812d940ad98d3",
		grid:   "0750704287b7ada46d7010af7c2e4c49ea779d5d36274405e850d76b1e8bb597",
		params: "f07d0bd449f2d4eb61b59fc3efa7c787bfda9a27ff9ccbbe3d65fe1eed598588",
		memory: "c7621150c0f3d4d2247ce1e5eb3b62885f1f1f5c9e9c6fe8f649bff84c24ef46",
	},
	"BFS/1": {
		kernel: "1907adcd0d2a500a8dbd7578b235ec8b46976c819ab955b9a616fc17e0ffb443",
		grid:   "e8a4b2ee7ede79a3afb332b5b6cc3d952a65fd8cffb897f5d18016577c33d7cc",
		params: "010ab38d52bc76453134e3ccd632a02c63d68e3a98a7339bd43d19c35fd62f2c",
		memory: "9f0f41bdadc4f79cbac1bce1d14fefaa87964db514dae09a21de8b3a5142a0fc",
	},
	"BFS/2": {
		kernel: "1907adcd0d2a500a8dbd7578b235ec8b46976c819ab955b9a616fc17e0ffb443",
		grid:   "3fbf037cb6bcb6178ea17e51a1766736cbcb464e4bc6991e76c0961d313c9446",
		params: "e832ecfadbe3bbedb70f431c23a406415f325548fcfbe0b6c8fee3086e7dd85a",
		memory: "c78360681371d39d3d72baa3ce3f5e13fc317fe107ee89372a53e128750af3dc",
	},
	"gaussian/1": {
		kernel: "af45812955a7ef8871cc04b9cefa92055570ea45282f3eb74dea4890e2b48989",
		grid:   "d3fe97979d0fbe3bf464e5001637443d72b890242a801cc221b1c8a169a69761",
		params: "67532c4e2b56d8ad74c0f9bdbdfcca058d03313091c527299133304838498279",
		memory: "13e19cb64c767da2331f598f253958b824165c4e37b2fd9a4d6dc2cd0f5e6342",
	},
	"gaussian/2": {
		kernel: "af45812955a7ef8871cc04b9cefa92055570ea45282f3eb74dea4890e2b48989",
		grid:   "cbce3f24bbaf263e07da1c5f31dcebcaf407d740d884c1298ab73a9641074a89",
		params: "64bcee9c9d55e89d957f49a5ea536143ad12c43276ba12c7798d6bc7fdba91ee",
		memory: "cae12245623a33a1e2adb07c01d1f80bbd68dbe9706b121a13be04613d7d1fb4",
	},
	"NN/1": {
		kernel: "21c0a4beb20bb6ba5d4a73e9f8a224a437b5ed66b9052187eaecbcb28a9508f2",
		grid:   "d3fe97979d0fbe3bf464e5001637443d72b890242a801cc221b1c8a169a69761",
		params: "44f2826a2710abda8dcb82be4a2a259e52a7bfba021572be03087ffde7b438bf",
		memory: "689dac781ed38ab5e559d5012bb366fcaa3006291a66109da211b6047bdb5b88",
	},
	"NN/2": {
		kernel: "21c0a4beb20bb6ba5d4a73e9f8a224a437b5ed66b9052187eaecbcb28a9508f2",
		grid:   "cbce3f24bbaf263e07da1c5f31dcebcaf407d740d884c1298ab73a9641074a89",
		params: "1e9aaa63925c70901b81ef88c9f219a613f6762c9b4612512e9016126cb07d3f",
		memory: "62031918bf44afdb563751be7aee4a90a2db8ef50d92d3a6c50e114d68885b8d",
	},
	"epilogue/1": {
		kernel: "1ec0d7d667b92772863758b2ea03ac277a0af8b0652c8d4e85cf8c6d68d686c2",
		grid:   "3fbf037cb6bcb6178ea17e51a1766736cbcb464e4bc6991e76c0961d313c9446",
		params: "bf5e8ffa51a9e748985800c1d3d7f1a2a6ae7435136593ca8d9637e3f87c699c",
		memory: "40245c7cb0663c12036f8184ea24673e05f292ed323ea43e52ca7ea1bbe31b1b",
	},
	"epilogue/2": {
		kernel: "ea1b18a8bfdffe7e91c0bb0b6d5d27322c7fa90be591c53660cf153013a56101",
		grid:   "0750704287b7ada46d7010af7c2e4c49ea779d5d36274405e850d76b1e8bb597",
		params: "bf5e8ffa51a9e748985800c1d3d7f1a2a6ae7435136593ca8d9637e3f87c699c",
		memory: "746927abe168a51ecf34259cf357edad17bed4ca2c06e08fdf8f2ac45f24170b",
	},
}

func TestProxyBytesPinned(t *testing.T) {
	var missing []string
	for _, s := range pinnedSpecs() {
		for _, scale := range []int{1, 2} {
			key := fmt.Sprintf("%s/%d", s.Name, scale)
			got := digestInstance(s.Build(scale))
			want, ok := pinnedProxies[key]
			if !ok {
				missing = append(missing, fmt.Sprintf("\t%q: {\n\t\tkernel: %q,\n\t\tgrid:   %q,\n\t\tparams: %q,\n\t\tmemory: %q,\n\t},",
					key, got.kernel, got.grid, got.params, got.memory))
				continue
			}
			for _, part := range []struct{ name, got, want string }{
				{"kernel", got.kernel, want.kernel},
				{"grid", got.grid, want.grid},
				{"params", got.params, want.params},
				{"memory", got.memory, want.memory},
			} {
				if part.got != part.want {
					t.Errorf("%s: %s digest %s, pinned %s", key, part.name, part.got, part.want)
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d proxies have no pinned digest:\n%s", len(missing), strings.Join(missing, "\n"))
	}
	if n := 2 * len(pinnedSpecs()); len(pinnedProxies) != n {
		t.Errorf("pinned table has %d rows, want %d (every spec at scales 1 and 2)", len(pinnedProxies), n)
	}
}
